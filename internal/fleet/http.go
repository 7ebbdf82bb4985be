package fleet

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strconv"
	"time"

	"tagwatch/internal/epc"
	"tagwatch/internal/promtext"
	"tagwatch/internal/replication"
)

// Handler builds the fleet's HTTP API:
//
//	GET /api/tags        merged tag registry (?mobile=1, ?reader=NAME, ?limit=N)
//	GET /api/tags/{epc}  one tag's merged state
//	GET /api/readers     per-reader supervisor status
//	GET /api/status      node role, registry totals, replication peers
//	GET /api/events      fleet event stream as server-sent events
//	GET /healthz         200 while at least one reader is up, else 503
//	GET /metrics         Prometheus text exposition
//
// The whole mux runs behind the admission controller: per-client rate
// limiting (429) and adaptive concurrency limiting with LIFO shedding
// (503) when configured, panic containment always. /healthz and /metrics
// bypass limiting — they must answer during the exact overload the
// limits manage.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/tags", func(w http.ResponseWriter, r *http.Request) {
		ServeTags(w, r, m.reg.Snapshot)
	})
	mux.HandleFunc("GET /api/tags/{epc}", m.handleTag)
	mux.HandleFunc("GET /api/readers", m.handleReaders)
	mux.HandleFunc("GET /api/status", m.handleStatus)
	// SSE streams bypass the concurrency limit (they are long-lived by
	// design), so the streamer's subscriber cap is what bounds them.
	mux.Handle("GET /api/events", &EventStreamer{
		Bus:          m.bus,
		Snapshot:     m.reg.Snapshot,
		WriteTimeout: m.cfg.SSEWriteTimeout,
		Heartbeat:    m.cfg.SSEHeartbeat,
		Buffer:       m.cfg.EventBuffer,
	})
	mux.HandleFunc("GET /healthz", m.handleHealthz)
	mux.Handle("GET /metrics", promtext.Handler(m.writeMetrics))
	return m.admission.Middleware(mux)
}

// Serve runs the HTTP API on lis until ctx is cancelled, then drains
// it through the shared Serve loop.
func (m *Manager) Serve(ctx context.Context, lis net.Listener) error {
	return Serve(ctx, lis, m.Handler())
}

// Serve is the server loop fleetd, its standby and edged share: it
// serves h on lis until ctx is cancelled, then shuts down gracefully
// with a 5 s drain. Request contexts derive from ctx, so long-lived SSE
// streams end promptly at shutdown instead of pinning the drain.
//
// The server is hardened against slow and abusive clients: header reads
// and idle keep-alives are bounded, and header size is capped. There is
// deliberately no WriteTimeout — it would kill every SSE stream at a
// fixed age; slow SSE consumers are bounded instead by the per-write
// deadlines in EventStreamer, and slow non-SSE responses by the
// admission latency budget.
func Serve(ctx context.Context, lis net.Listener, h http.Handler) error {
	srv := &http.Server{
		Handler:           h,
		BaseContext:       func(net.Listener) context.Context { return ctx },
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(lis) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(sctx)
		srv.Close()
		return err
	}
}

// WriteJSON writes v, indented, as the JSON body of a response with
// the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// ServeTags answers GET /api/tags from snapshot, filtered by the query:
// ?mobile=1 keeps movers, ?reader=NAME one reader's tags, ?limit=N the
// first N. The fleet serves its registry through it, the edge its
// mirror; a bad limit is refused before any snapshot is taken.
func ServeTags(w http.ResponseWriter, r *http.Request, snapshot func() []TagState) {
	q := r.URL.Query()
	onlyMobile := q.Get("mobile") == "1" || q.Get("mobile") == "true"
	reader := q.Get("reader")
	limit := 0
	if s := q.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		limit = n
	}
	tags := snapshot()
	out := tags[:0]
	for _, t := range tags {
		if onlyMobile && !t.Mobile {
			continue
		}
		if reader != "" && t.Reader != reader {
			continue
		}
		out = append(out, t)
		if limit > 0 && len(out) == limit {
			break
		}
	}
	WriteJSON(w, http.StatusOK, struct {
		Count int        `json:"count"`
		Tags  []TagState `json:"tags"`
	}{len(out), out})
}

func (m *Manager) handleTag(w http.ResponseWriter, r *http.Request) {
	code, err := epc.Parse(r.PathValue("epc"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	st, ok := m.reg.Get(code)
	if !ok {
		http.Error(w, "unknown tag", http.StatusNotFound)
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

func (m *Manager) handleReaders(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, struct {
		Readers []ReaderStatus `json:"readers"`
	}{m.Readers()})
}

// handleStatus reports the node's role and replication posture in one
// place — what an operator (or an orchestrator deciding whether to
// fail over) reads first.
func (m *Manager) handleStatus(w http.ResponseWriter, r *http.Request) {
	role := "standalone"
	peers := m.ReplicationStatus()
	if len(peers) > 0 {
		role = "primary"
	}
	obs, handoffs := m.reg.Stats()
	WriteJSON(w, http.StatusOK, struct {
		Role         string                   `json:"role"`
		Healthy      bool                     `json:"healthy"`
		UptimeSecs   int64                    `json:"uptime_secs"`
		Readers      int                      `json:"readers"`
		Tags         int                      `json:"tags"`
		Observations uint64                   `json:"observations"`
		Handoffs     uint64                   `json:"handoffs"`
		Durable      bool                     `json:"durable"`
		Events       EventsStatus             `json:"events"`
		Replication  []replication.PeerStatus `json:"replication,omitempty"`
	}{
		Role:         role,
		Healthy:      m.Healthy(),
		UptimeSecs:   int64(time.Since(m.Started()).Seconds()),
		Readers:      len(m.Readers()),
		Tags:         m.reg.Len(),
		Observations: obs,
		Handoffs:     handoffs,
		Durable:      m.cfg.StateDir != "",
		Events:       m.bus.Status(),
		Replication:  peers,
	})
}

func (m *Manager) handleHealthz(w http.ResponseWriter, r *http.Request) {
	up := 0
	readers := m.Readers()
	for _, rs := range readers {
		if rs.State == StateUp.String() {
			up++
		}
	}
	status := http.StatusOK
	state := "ok"
	if !m.Healthy() {
		status = http.StatusServiceUnavailable
		state = "degraded"
	}
	WriteJSON(w, status, struct {
		Status     string `json:"status"`
		ReadersUp  int    `json:"readers_up"`
		Readers    int    `json:"readers"`
		Tags       int    `json:"tags"`
		UptimeSecs int64  `json:"uptime_secs"`
	}{state, up, len(readers), m.reg.Len(), int64(time.Since(m.Started()).Seconds())})
}
