package idmef

import (
	"encoding/xml"
	"fmt"
	"strconv"
	"unicode/utf8"
)

// alertSizeHint is a typical encoded alert's length, so Marshal allocates
// its result once.
const alertSizeHint = 768

// appendAlert appends a's IDMEF-Message document to dst. It is a
// straight-line form of xml.MarshalIndent(Message{IDMEFVersion, a}, "",
// "  ") prefixed with xml.Header, and its output is byte-identical to
// that, errors included; FuzzMarshalMatchesXML holds it to the
// reflective encoder. On error dst is returned unchanged.
func appendAlert(dst []byte, a Alert) ([]byte, error) {
	n0 := len(dst)
	dst = append(dst, xml.Header...)
	dst = append(dst, "<IDMEF-Message version=\""+IDMEFVersion+"\">\n  <Alert messageid=\""...)
	dst = appendEscaped(dst, a.MessageID)
	dst = append(dst, "\">\n    <CreateTime>"...)
	withTime, err := a.CreateTime.AppendText(dst)
	if err != nil {
		// Report the error encoding/xml reports: it calls MarshalText,
		// whose message names that method.
		if _, merr := a.CreateTime.MarshalText(); merr != nil {
			err = merr
		}
		return dst[:n0], fmt.Errorf("idmef: marshal alert %s: %w", a.MessageID, err)
	}
	dst = append(withTime, "</CreateTime>\n    <Classification text=\""...)
	dst = appendEscaped(dst, a.Classification.Text)
	dst = append(dst, "\"></Classification>\n    <Source>\n"...)
	dst = appendNode(dst, a.Source)
	dst = append(dst, "    </Source>\n    <Target>\n"...)
	dst = appendNode(dst, a.Target)
	dst = append(dst, "    </Target>\n    <Assessment>\n      <Stage>"...)
	dst = appendEscaped(dst, string(a.Assessment.Stage))
	dst = append(dst, "</Stage>\n      <PeerAS>"...)
	dst = strconv.AppendInt(dst, int64(a.Assessment.PeerAS), 10)
	dst = append(dst, "</PeerAS>\n      <Distance>"...)
	dst = strconv.AppendInt(dst, int64(a.Assessment.Distance), 10)
	dst = append(dst, "</Distance>\n    </Assessment>\n  </Alert>\n</IDMEF-Message>"...)
	return dst, nil
}

// appendNode appends the <Node> element of a Source or Target.
func appendNode(dst []byte, n Node) []byte {
	dst = append(dst, "      <Node>\n        <Address>"...)
	dst = appendEscaped(dst, n.Address)
	dst = append(dst, "</Address>\n        <Port>"...)
	dst = strconv.AppendUint(dst, uint64(n.Port), 10)
	return append(dst, "</Port>\n      </Node>\n"...)
}

// appendEscaped appends s escaped as encoding/xml escapes attribute
// values and character data: the five markup characters and tab, newline
// and carriage return become character references, and invalid UTF-8 or
// a rune outside the XML character range becomes U+FFFD.
func appendEscaped(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, width := utf8.DecodeRuneInString(s[i:])
			i += width
			if inCharRange(r) && (r != utf8.RuneError || width > 1) {
				continue
			}
			dst = append(dst, s[last:i-width]...)
			dst = append(dst, "�"...)
			last = i
			continue
		}
		i++
		var esc string
		switch c {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if c >= 0x20 {
				continue
			}
			esc = "�"
		}
		dst = append(dst, s[last:i-1]...)
		dst = append(dst, esc...)
		last = i
	}
	return append(dst, s[last:]...)
}

// inCharRange reports whether a multi-byte rune is an XML Char
// (encoding/xml's isInCharacterRange above U+007F).
func inCharRange(r rune) bool {
	return r <= 0xD7FF || r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF
}
