// Package idmef implements a compact subset of the Intrusion Detection
// Message Exchange Format (IETF IDWG draft) used by the Enhanced InFilter
// Analysis module to notify consumers of detected attacks (paper §5.1.4).
// Alerts are serialized as IDMEF-Message XML documents by a hand-written
// encoder whose output is byte-identical to encoding/xml's (see
// appendAlert); the consumer side parses them with encoding/xml and
// dispatches them to a handler (the Alert UI role).
package idmef

import (
	"encoding/xml"
	"fmt"
	"time"

	"infilter/internal/flow"
)

// Stage identifies the analysis stage that flagged the attack.
type Stage string

// Detection stages.
const (
	StageEIA  Stage = "eia-set"
	StageScan Stage = "scan-analysis"
	StageNNS  Stage = "nns-search"
	StageTTL  Stage = "ttl-profile"
)

// Alert is the subset of an IDMEF Alert the prototype emits.
type Alert struct {
	XMLName        xml.Name  `xml:"Alert"`
	MessageID      string    `xml:"messageid,attr"`
	CreateTime     time.Time `xml:"CreateTime"`
	Classification Class     `xml:"Classification"`
	Source         Node      `xml:"Source>Node"`
	Target         Node      `xml:"Target>Node"`
	Assessment     Assess    `xml:"Assessment"`
}

// Class carries the attack classification text.
type Class struct {
	Text string `xml:"text,attr"`
}

// Node identifies an endpoint by address and port.
type Node struct {
	Address string `xml:"Address"`
	Port    uint16 `xml:"Port"`
}

// Assess carries detection metadata: which stage fired, the ingress peer
// AS, and the anomaly distance when NNS was involved.
type Assess struct {
	Stage    Stage `xml:"Stage"`
	PeerAS   int   `xml:"PeerAS"`
	Distance int   `xml:"Distance"`
}

// Message is the top-level IDMEF-Message envelope.
type Message struct {
	XMLName xml.Name `xml:"IDMEF-Message"`
	Version string   `xml:"version,attr"`
	Alert   Alert    `xml:"Alert"`
}

// IDMEFVersion is the draft version tag emitted.
const IDMEFVersion = "1.0"

// NewAlert builds an alert for a flagged flow.
func NewAlert(id string, now time.Time, stage Stage, peerAS int, classification string, k flow.Key, distance int) Alert {
	return Alert{
		MessageID:      id,
		CreateTime:     now.UTC(),
		Classification: Class{Text: classification},
		Source:         Node{Address: k.Src.String(), Port: k.SrcPort},
		Target:         Node{Address: k.Dst.String(), Port: k.DstPort},
		Assessment:     Assess{Stage: stage, PeerAS: peerAS, Distance: distance},
	}
}

// Marshal serializes the alert as an IDMEF-Message document: the XML
// header followed by the Message envelope indented two spaces per level,
// exactly as xml.MarshalIndent(msg, "", "  ") would write it.
func Marshal(a Alert) ([]byte, error) {
	return appendAlert(make([]byte, 0, alertSizeHint), a)
}

// Unmarshal parses an IDMEF-Message document.
func Unmarshal(raw []byte) (Alert, error) {
	var msg Message
	if err := xml.Unmarshal(raw, &msg); err != nil {
		return Alert{}, fmt.Errorf("idmef: unmarshal: %w", err)
	}
	if msg.Version != IDMEFVersion {
		return Alert{}, fmt.Errorf("idmef: unsupported version %q", msg.Version)
	}
	return msg.Alert, nil
}
