package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// ResetPayload is the data body of an EventReset SSE frame: a full
// registry snapshot plus the cursor it is anchored to. A client that
// applies Tags as its entire state and adopts Cursor (under Identity's
// sequence space) is exactly caught up — every event with Seq > Cursor
// builds on this snapshot.
type ResetPayload struct {
	Identity string     `json:"identity"`
	Cursor   uint64     `json:"cursor"`
	Tags     []TagState `json:"tags"`
}

// FormatCursor renders an SSE cursor as published in id: fields —
// "<bus identity>:<sequence>". The identity half is what makes cursors
// safe across failovers: a promoted standby or restarted primary mints
// a new identity, so a stale cursor can never resume into the wrong
// sequence space.
func FormatCursor(identity string, seq uint64) string {
	return identity + ":" + strconv.FormatUint(seq, 10)
}

// ParseCursor parses a Last-Event-ID cursor. ok is false for anything
// malformed — the caller treats that the same as no cursor (reset).
func ParseCursor(s string) (identity string, seq uint64, ok bool) {
	identity, rest, found := strings.Cut(s, ":")
	if !found || identity == "" {
		return "", 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return "", 0, false
	}
	return identity, n, true
}

// EventStreamer serves one bus over SSE with resumable cursors. It is
// the single delivery path shared by the fleet's /api/events and the
// edge tier's downstream /api/events, so both ends of the fan-out speak
// identical cursor/gap/reset semantics:
//
//   - every frame carries "id: <identity>:<seq>";
//   - a client reconnecting with Last-Event-ID replays the missed
//     events from the bus ring when the cursor is still covered;
//   - otherwise (no cursor, foreign identity, fell off the ring) the
//     stream opens with an explicit reset frame — full snapshot plus
//     fresh cursor — never a silent discontinuity;
//   - a shed subscriber's loss arrives as a gap frame naming the missed
//     range (synthesised by the bus);
//   - an idle stream carries ":keepalive" comment frames so
//     intermediaries don't sever quiet connections.
//
// Every write — snapshot, replay, live, heartbeat — goes through one
// deadline-armed send path: a stalled client is disconnected, never
// left pinning the handler.
type EventStreamer struct {
	// Bus is the event source; Snapshot produces the full-state anchor
	// for reset frames (must reflect every event already published — the
	// fleet registry's publish-under-shard-lock discipline guarantees
	// this).
	Bus      *Bus
	Snapshot func() []TagState
	// WriteTimeout bounds each frame write; Heartbeat spaces keepalives;
	// Buffer sizes the per-client subscriber channel.
	WriteTimeout time.Duration
	Heartbeat    time.Duration
	Buffer       int
}

// ServeHTTP streams events to one client until it disconnects, stalls
// past WriteTimeout, or the server shuts down.
func (es *EventStreamer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if _, ok := w.(http.Flusher); !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	rc := http.NewResponseController(w)
	// send writes one frame under the deadline and reports whether the
	// client is still worth keeping. SetWriteDeadline may be unsupported
	// by an exotic wrapped writer — then the write proceeds unbounded,
	// which is the legacy behaviour, not a new failure.
	send := func(format string, args ...any) bool {
		_ = rc.SetWriteDeadline(time.Now().Add(es.WriteTimeout))
		if _, err := fmt.Fprintf(w, format, args...); err != nil {
			return false
		}
		return rc.Flush() == nil
	}

	sub, ok := es.Bus.TrySubscribe(es.Buffer)
	if !ok {
		w.Header().Set("Retry-After", "5")
		http.Error(w, "subscriber limit reached", http.StatusServiceUnavailable)
		return
	}
	defer sub.Close()

	identity := es.Bus.Identity()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	if !send(": tagwatch event stream\n\n") {
		return
	}

	// delivered is the highest sequence this client is known to hold;
	// live events at or below it are replay overlap and are skipped.
	var delivered uint64
	resumed := false
	if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		if ident, seq, ok := ParseCursor(lei); ok && ident == identity {
			// Replay after subscribing: anything published since the
			// subscription also sits in our channel, and the overlap is
			// deduplicated by the delivered watermark.
			if evs, ok := es.Bus.ReplayFrom(seq); ok {
				delivered = seq
				for _, ev := range evs {
					if !es.sendEvent(send, identity, ev) {
						return
					}
					delivered = ev.Seq
				}
				resumed = true
			}
		}
	}
	if !resumed {
		// No cursor, a foreign identity's cursor, or fallen off the ring:
		// anchor the client with an explicit reset. LastSeq is read BEFORE
		// the snapshot; because mutations publish before any later
		// snapshot can observe them, the snapshot reflects every event up
		// to (at least) that cursor.
		cursor := es.Bus.LastSeq()
		snap := es.Snapshot()
		data, err := json.Marshal(ResetPayload{Identity: identity, Cursor: cursor, Tags: snap})
		if err != nil {
			return
		}
		if !send("id: %s\nevent: %s\ndata: %s\n\n", FormatCursor(identity, cursor), EventReset, data) {
			return
		}
		delivered = cursor
	}

	hb := time.NewTicker(es.Heartbeat)
	defer hb.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-hb.C:
			// Backstop for a gap the empty-queue flush below missed.
			sub.FlushGap()
			if !send(":keepalive dropped=%d gaps=%d\n\n", sub.Dropped(), sub.Gaps()) {
				return
			}
		case ev, ok := <-sub.C():
			if !ok {
				return
			}
			if ev.Seq > delivered { // else replay overlap
				if !es.sendEvent(send, identity, ev) {
					return
				}
				delivered = ev.Seq
			}
			// A hole at the tail of a burst has no later publish to
			// announce it: once the queue is empty, deliver it now.
			if len(sub.C()) == 0 {
				sub.FlushGap()
			}
		}
	}
}

func (es *EventStreamer) sendEvent(send func(string, ...any) bool, identity string, ev Event) bool {
	data, err := json.Marshal(ev)
	if err != nil {
		return true // unserialisable event: skip, keep the client
	}
	return send("id: %s\nevent: %s\ndata: %s\n\n", FormatCursor(identity, ev.Seq), ev.Type, data)
}
