package analysis

import (
	"errors"
	"sync"
	"time"

	"infilter/internal/eia"
	"infilter/internal/flow"
)

// shardBatch is the one queue message shape: a batch of records observed
// at one peer, staged in a pooled slice (pooledRecs points at recs'
// backing array) that the worker returns to recSlicePool once consumed.
type shardBatch struct {
	peer       eia.PeerAS
	recs       []flow.Record
	pooledRecs *[]flow.Record
}

// recSlicePool recycles batch staging slices between SubmitBatch calls and
// the workers that drain them, keeping the steady-state batch path
// allocation-free.
var recSlicePool = sync.Pool{New: func() any { return new([]flow.Record) }}

// ErrEngineClosed is returned by Submit and SubmitBatch after Close.
var ErrEngineClosed = errors.New("analysis: parallel engine closed")

// Submit enqueues one flow for its peer's shard: a one-record SubmitBatch.
func (e *ParallelEngine) Submit(peer eia.PeerAS, rec flow.Record) error {
	return e.SubmitBatch(peer, []flow.Record{rec})
}

// SubmitBatch enqueues a batch of flows that all entered through peer —
// the shape one ingest reader hands over, since a local port maps to one
// peering link. The whole batch lands on peer's shard as one queue
// message and is classified against one EIA snapshot; per-peer flow order
// is the batch order. It blocks while the shard's queue is full
// (backpressure), starts the shard workers on the engine's first
// submission and returns ErrEngineClosed after Close.
func (e *ParallelEngine) SubmitBatch(peer eia.PeerAS, recs []flow.Record) error {
	if len(recs) == 0 {
		return nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrEngineClosed
	}
	e.started.Do(e.startWorkers)
	e.submitted.Add(int64(len(recs)))
	p := recSlicePool.Get().(*[]flow.Record)
	staged := append((*p)[:0], recs...) // one bulk copy; caller keeps recs
	*p = staged
	e.enqueue(e.shardFor(peer), shardBatch{peer: peer, recs: staged, pooledRecs: p})
	return nil
}

// startWorkers launches one worker per shard. It runs once, under the
// read lock of the first submission, so Close (which takes the write
// lock) always sees every worker it must wait for.
func (e *ParallelEngine) startWorkers() {
	for _, s := range e.shards {
		e.wg.Add(1)
		go e.worker(s)
	}
}

// enqueue places one message on s's queue, counting (then waiting out)
// backpressure when the queue is full.
func (e *ParallelEngine) enqueue(s *shard, sb shardBatch) {
	select {
	case s.queue <- sb:
	default:
		// Full queue: count the backpressure event, then block as before.
		s.blocks.Inc() // nil-safe
		s.queue <- sb
	}
}

func (e *ParallelEngine) worker(s *shard) {
	defer e.wg.Done()
	for sb := range s.queue {
		n := int64(len(sb.recs))
		e.processPeerBatch(s, sb.peer, sb.recs)
		*sb.pooledRecs = sb.recs[:0]
		recSlicePool.Put(sb.pooledRecs)
		e.processed.Add(n)
	}
}

// Flush blocks until every flow submitted before the call has been
// processed. It is a drain barrier for tests and benchmarks; it does not
// stop the engine.
func (e *ParallelEngine) Flush() {
	target := e.submitted.Load()
	for e.processed.Load() < target {
		time.Sleep(50 * time.Microsecond)
	}
}

// Close drains the shard queues, waits for every worker to exit and
// releases the engine. Subsequent Submits return ErrEngineClosed; Close is
// idempotent, and a no-op wait on an engine that never started workers.
// Flows already queued are fully processed (graceful drain), so counters
// and alerts for them are emitted before Close returns.
func (e *ParallelEngine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	for _, s := range e.shards {
		close(s.queue)
	}
	e.wg.Wait()
	return nil
}
