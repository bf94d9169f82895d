package obs

import (
	"bytes"
	"sync"
)

// LineTail is an io.Writer retaining the last N complete lines written
// through it — the in-memory tail of the structured event stream that the
// diagnostics bundle snapshots. Binaries tee the EventLog through it with
// io.MultiWriter(file, tail) so the bundle's event tail matches what was
// persisted.
//
// Writes are line-buffered: a partial line (no trailing '\n') is held until
// completed, so concurrent slog handlers that write whole lines per call
// are captured intact. LineTail is safe for concurrent use.
type LineTail struct {
	mu      sync.Mutex
	lines   *Ring[string]
	partial []byte
}

// DefaultTailLines is the tail capacity used when none is configured.
const DefaultTailLines = 256

// NewLineTail returns a tail retaining the last capacity lines
// (DefaultTailLines when capacity <= 0).
func NewLineTail(capacity int) *LineTail {
	if capacity <= 0 {
		capacity = DefaultTailLines
	}
	return &LineTail{lines: NewRing[string](capacity)}
}

// Write implements io.Writer; it never fails. A nil tail discards.
func (t *LineTail) Write(p []byte) (int, error) {
	if t == nil {
		return len(p), nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rest := p
	for {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			t.partial = append(t.partial, rest...)
			return len(p), nil
		}
		line := rest[:i]
		if len(t.partial) > 0 {
			t.partial = append(t.partial, line...)
			t.lines.Push(string(t.partial))
			t.partial = t.partial[:0]
		} else {
			t.lines.Push(string(line))
		}
		rest = rest[i+1:]
	}
}

// Lines returns the retained lines oldest-first. A nil tail returns nil.
func (t *LineTail) Lines() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lines.Snapshot()
}
