package edge

import (
	"context"
	"net"
	"net/http"
	"strconv"
	"time"

	"tagwatch/internal/fleet"
	"tagwatch/internal/promtext"
)

// Server re-serves the edge mirror over HTTP with the same API shapes —
// and the same cursor/gap/reset SSE semantics — as the fleet primary:
//
//	GET /api/tags    mirrored tag registry (?mobile=1, ?reader=NAME, ?limit=N)
//	GET /api/status  link state, cursor, loss accounting, staleness
//	GET /api/events  downstream event stream (resumable cursors)
//	GET /healthz     200 always — "ok" when fresh, "degraded" when stale;
//	                 a stale mirror is still a better answer than none
//	GET /metrics     Prometheus text exposition
//
// Every /api/tags answer carries X-Tagwatch-Staleness-Ms so a caller
// can judge the mirror's freshness per-response instead of trusting it
// blindly.
type Server struct {
	client  *Client
	started time.Time
}

// NewServer wraps a client's mirror and downstream bus for serving.
func NewServer(c *Client) *Server {
	return &Server{client: c, started: time.Now()}
}

// Handler builds the downstream HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/tags", s.handleTags)
	mux.HandleFunc("GET /api/status", s.handleStatus)
	// The fleet's own streamer, in the edge bus's sequence space:
	// identical resume/gap/reset semantics to the primary.
	cfg := s.client.cfg
	mux.Handle("GET /api/events", &fleet.EventStreamer{
		Bus:          s.client.Bus(),
		Snapshot:     s.client.Snapshot,
		WriteTimeout: cfg.SSEWriteTimeout,
		Heartbeat:    cfg.SSEHeartbeat,
		Buffer:       cfg.EventBuffer,
	})
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", promtext.Handler(s.writeMetrics))
	return mux
}

// Serve runs the downstream API on lis until ctx is cancelled, then
// drains it through the fleet's shared server loop (fleet.Serve).
func (s *Server) Serve(ctx context.Context, lis net.Listener) error {
	return fleet.Serve(ctx, lis, s.Handler())
}

func (s *Server) handleTags(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("X-Tagwatch-Staleness-Ms", strconv.FormatInt(s.client.Status().StalenessMS, 10))
	fleet.ServeTags(w, r, s.client.Snapshot)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := s.client.Status()
	fleet.WriteJSON(w, http.StatusOK, struct {
		Role       string             `json:"role"`
		UptimeSecs int64              `json:"uptime_secs"`
		Tags       int                `json:"tags"`
		Stale      bool               `json:"stale"`
		Link       ClientStatus       `json:"link"`
		Events     fleet.EventsStatus `json:"events"`
	}{
		Role:       "edge",
		UptimeSecs: int64(time.Since(s.started).Seconds()),
		Tags:       st.Tags,
		Stale:      s.client.Stale(),
		Link:       st,
		Events:     s.client.Bus().Status(),
	})
}

// handleHealthz is deliberately degraded-not-dead: the edge exists to
// keep answering when upstream cannot, so a stale mirror is reported
// (status "degraded", staleness measured) but never turned into a 503
// that would make a load balancer amplify an upstream outage into a
// read outage.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.client.Status()
	state := "ok"
	if s.client.Stale() {
		state = "degraded"
	}
	fleet.WriteJSON(w, http.StatusOK, struct {
		Status      string `json:"status"`
		Connected   bool   `json:"connected"`
		StalenessMS int64  `json:"staleness_ms"`
		Tags        int    `json:"tags"`
		UptimeSecs  int64  `json:"uptime_secs"`
	}{state, st.Connected, st.StalenessMS, st.Tags, int64(time.Since(s.started).Seconds())})
}

// writeMetrics renders the link's convergence ledger and the
// downstream bus's loss accounting on p.
func (s *Server) writeMetrics(p *promtext.Page) {
	st := s.client.Status()
	p.Gauge("tagwatch_edge_upstream_connected", "Whether the upstream SSE session is live.").Int(promtext.Bool(st.Connected))
	p.Gauge("tagwatch_edge_staleness_ms", "Milliseconds since the last upstream frame (-1 before any).").Int(st.StalenessMS)
	p.Gauge("tagwatch_edge_mirror_tags", "Tags in the local registry mirror.").Int(int64(st.Tags))
	p.Gauge("tagwatch_edge_cursor", "Last contiguously applied upstream sequence.").Uint(st.Cursor)
	p.Counter("tagwatch_edge_sessions_total", "Upstream SSE sessions established.").Uint(st.Sessions)
	p.Counter("tagwatch_edge_frames_total", "Upstream SSE frames applied.").Uint(st.Frames)
	p.Counter("tagwatch_edge_resets_total", "Full-state re-anchors received from upstream.").Uint(st.Resets)
	p.Counter("tagwatch_edge_identity_changes_total", "Upstream sequence-space changes observed (failovers/restarts).").Uint(st.IdentityChanges)
	p.Counter("tagwatch_edge_gaps_total", "Loss intervals upstream announced to this edge.").Uint(st.Gaps)
	p.Counter("tagwatch_edge_gaps_healed_total", "Announced gaps recovered by ring replay.").Uint(st.GapsHealed)
	p.Counter("tagwatch_edge_gaps_reset_total", "Announced gaps recovered by full reset.").Uint(st.GapsReset)
	p.Counter("tagwatch_edge_contiguity_violations_total", "Unannounced sequence holes (zero in a correct deployment).").Uint(st.ContiguityViolations)
	s.client.Bus().Status().WriteMetrics(p, "tagwatch_edge_bus")
}
