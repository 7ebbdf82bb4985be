package fleet

import (
	"sort"

	"tagwatch/internal/promtext"
)

// writeMetrics renders the fleet's operational counters on p.
func (m *Manager) writeMetrics(p *promtext.Page) {
	readers := m.Readers()

	perReader := func(f promtext.Family, value func(ReaderStatus) int64) {
		for _, rs := range readers {
			f.Int(value(rs), "reader", rs.Name)
		}
	}
	perReader(p.Gauge("tagwatch_fleet_reader_up", "Whether the reader's LLRP session is established."),
		func(rs ReaderStatus) int64 { return promtext.Bool(rs.State == StateUp.String()) })
	f := p.Gauge("tagwatch_fleet_reader_state", "Supervisor state as a labelled 0/1 gauge.")
	for _, rs := range readers {
		for _, st := range []ReaderState{StateConnecting, StateUp, StateBackoff, StateDown} {
			f.Int(promtext.Bool(rs.State == st.String()), "reader", rs.Name, "state", st.String())
		}
	}
	perReader(p.Counter("tagwatch_fleet_reader_dial_attempts_total", "Connect attempts per reader."),
		func(rs ReaderStatus) int64 { return int64(rs.Attempts) })
	perReader(p.Counter("tagwatch_fleet_reader_reconnects_total", "Successful re-established sessions per reader."),
		func(rs ReaderStatus) int64 { return int64(rs.Reconnects) })
	perReader(p.Counter("tagwatch_fleet_reader_cycles_total", "Tagwatch cycles completed per reader."),
		func(rs ReaderStatus) int64 { return int64(rs.Cycles) })
	perReader(p.Counter("tagwatch_fleet_reader_cycle_errors_total", "Cycles that ended with a transport error per reader."),
		func(rs ReaderStatus) int64 { return int64(rs.CycleErrors) })
	perReader(p.Counter("tagwatch_fleet_reader_failures_total", "Consecutive dial/session failures currently accumulated per reader."),
		func(rs ReaderStatus) int64 { return int64(rs.ConsecutiveFailures) })
	f = p.Counter("tagwatch_fleet_reader_readings_total", "Tag readings delivered per reader.")
	for _, rs := range readers {
		f.Uint(rs.Readings, "reader", rs.Name)
	}
	f = p.Counter("tagwatch_fleet_reader_discarded_reports_total", "Tag reports dropped per reader because they named another ROSpec than the running one.")
	for _, rs := range readers {
		f.Uint(rs.DiscardedReports, "reader", rs.Name)
	}
	perReader(p.Gauge("tagwatch_fleet_reader_tripped", "Whether the supervisor spent its panic-restart budget and is dead."),
		func(rs ReaderStatus) int64 { return promtext.Bool(rs.Tripped) })
	perReader(p.Gauge("tagwatch_fleet_reader_panic_restarts", "Panic restarts inside the current budget window per reader."),
		func(rs ReaderStatus) int64 { return int64(rs.PanicRestarts) })

	tags := m.reg.Snapshot()
	mobile := 0
	owned := make(map[string]int)
	for _, t := range tags {
		if t.Mobile {
			mobile++
		}
		owned[t.Reader]++
	}
	p.Gauge("tagwatch_fleet_registry_tags", "Distinct tags in the merged registry.").Int(int64(len(tags)))
	p.Gauge("tagwatch_fleet_registry_mobile_tags", "Tags currently assessed as mobile.").Int(int64(mobile))
	f = p.Gauge("tagwatch_fleet_registry_owned_tags", "Tags last seen by each reader.")
	owners := make([]string, 0, len(owned))
	for name := range owned {
		owners = append(owners, name)
	}
	sort.Strings(owners)
	for _, name := range owners {
		f.Int(int64(owned[name]), "reader", name)
	}

	obs, handoffs := m.reg.Stats()
	p.Counter("tagwatch_fleet_registry_observations_total", "Readings merged into the registry.").Uint(obs)
	p.Counter("tagwatch_fleet_registry_handoffs_total", "Reader-to-reader tag transitions.").Uint(handoffs)

	evicted, quarantinedObs, qs := m.reg.GuardStats()
	p.Counter("tagwatch_fleet_registry_evicted_total", "Tags evicted by the registry capacity bound.").Uint(evicted)
	p.Counter("tagwatch_fleet_registry_quarantined_total", "Observations refused while their EPC sat in quarantine.").Uint(quarantinedObs)
	p.Counter("tagwatch_guard_quarantine_held_total", "Sightings held on probation by the ghost-tag quarantine.").Uint(qs.Held)
	p.Counter("tagwatch_guard_quarantine_confirmed_total", "EPCs that cleared quarantine and were admitted.").Uint(qs.Confirmed)
	p.Counter("tagwatch_guard_quarantine_evicted_total", "Probationary EPCs displaced by quarantine ring overflow.").Uint(qs.Evicted)
	p.Counter("tagwatch_guard_quarantine_expired_total", "Probation windows that lapsed and restarted.").Uint(qs.Expired)
	p.Gauge("tagwatch_guard_quarantine_size", "EPCs currently on probation.").Int(int64(qs.Size))

	m.bus.Status().WriteMetrics(p, "tagwatch_fleet_bus")

	ast := m.admission.Stats()
	p.Counter("tagwatch_guard_api_admitted_total", "API requests that acquired a concurrency slot (or needed none).").Uint(ast.Admitted)
	p.Counter("tagwatch_guard_api_rate_limited_total", "API requests rejected 429 by the per-client token bucket.").Uint(ast.RateLimited)
	p.Counter("tagwatch_guard_api_shed_total", "API requests shed 503 by the concurrency limiter.").Uint(ast.Shed)
	p.Counter("tagwatch_guard_api_panics_total", "HTTP handler panics contained into 500s.").Uint(ast.Panics)
	p.Gauge("tagwatch_guard_api_concurrency_limit", "Current adaptive (AIMD) concurrency limit.").Int(int64(ast.Limit))
	p.Gauge("tagwatch_guard_api_inflight", "API requests currently holding slots.").Int(int64(ast.Inflight))
	p.Gauge("tagwatch_guard_api_clients", "Client token buckets currently tracked.").Int(int64(ast.Clients))

	f = p.Counter("tagwatch_guard_panics_total", "Panics contained per supervised component.")
	for _, cc := range m.sentinel.Counts() {
		f.Uint(cc.Count, "component", cc.Component)
	}

	peers := m.ReplicationStatus()
	if len(peers) == 0 {
		return
	}
	f = p.Gauge("tagwatch_replication_peer_connected", "Whether the replication session to the peer is live.")
	for _, ps := range peers {
		f.Int(promtext.Bool(ps.Connected), "peer", ps.Addr)
	}
	f = p.Gauge("tagwatch_replication_peer_lag_bytes", "Committed-minus-acked journal bytes per peer (-1 when spanning generations).")
	for _, ps := range peers {
		f.Int(ps.LagBytes, "peer", ps.Addr)
	}
	f = p.Gauge("tagwatch_replication_peer_last_ack_age_ms", "Milliseconds since the peer's last ack (-1 before any).")
	for _, ps := range peers {
		f.Int(ps.LastAckAgeMS, "peer", ps.Addr)
	}
	f = p.Counter("tagwatch_replication_peer_records_sent_total", "Journal records shipped per peer.")
	for _, ps := range peers {
		f.Uint(ps.Records, "peer", ps.Addr)
	}
	f = p.Counter("tagwatch_replication_peer_snapshots_sent_total", "Snapshot re-anchors shipped per peer.")
	for _, ps := range peers {
		f.Uint(ps.Snapshots, "peer", ps.Addr)
	}
	f = p.Counter("tagwatch_replication_peer_resyncs_total", "Times the peer's cursor was re-anchored instead of resumed.")
	for _, ps := range peers {
		f.Uint(ps.Resyncs, "peer", ps.Addr)
	}
	f = p.Counter("tagwatch_replication_peer_reconnects_total", "Replication sessions re-established per peer.")
	for _, ps := range peers {
		f.Uint(ps.Reconnects, "peer", ps.Addr)
	}
}
