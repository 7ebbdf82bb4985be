// Fixture: call sites against the watched device/transport/fleet types.
package devclient

import (
	"context"
	"net"
	"time"

	"tagwatch/internal/core"
	"tagwatch/internal/edge"
	"tagwatch/internal/fleet"
	"tagwatch/internal/gauntlet"
	"tagwatch/internal/guard"
	"tagwatch/internal/llrp"
	"tagwatch/internal/replication"
	"tagwatch/internal/statestore"
)

func drops(dev core.Device, sim *core.SimDevice, c *llrp.Conn, m *fleet.Manager, ctx context.Context, lis net.Listener) {
	dev.ReadAll(nil)          // want `error from \(tagwatch/internal/core.Device\).ReadAll is silently dropped`
	sim.ReadSelective(0, nil) // want `error from \(tagwatch/internal/core.SimDevice\).ReadSelective is silently dropped`
	c.StartROSpec(ctx, 1)     // want `error from \(tagwatch/internal/llrp.Conn\).StartROSpec is silently dropped`
	go c.StopROSpec(ctx, 1)   // want `error from \(tagwatch/internal/llrp.Conn\).StopROSpec is silently dropped`
	m.Serve(ctx, lis)         // want `error from \(tagwatch/internal/fleet.Manager\).Serve is silently dropped`
}

func handled(dev core.Device) error {
	if err := dev.ReadAll(nil); err != nil {
		return err
	}
	return nil
}

// Assigning to blank is a reviewed, deliberate discard: legal.
func deliberate(dev core.Device) {
	_ = dev.ReadAll(nil)
}

// Close is exempt by convention — teardown is best-effort.
func closing(c *llrp.Conn, s *llrp.Server) {
	c.Close()
	s.Close()
}

// Deferred teardown is left to reviewers, not flagged.
func deferred(c *llrp.Conn, ctx context.Context) {
	defer c.StopROSpec(ctx, 1)
}

// No error in the signature means nothing to drop.
func now(dev core.Device) time.Duration {
	return dev.Now()
}

// Error-returning methods on unwatched types are out of scope.
type other struct{}

func (o other) Do() error { return nil }

func unwatched(o other) {
	o.Do()
}

func excused(dev core.Device) {
	dev.ReadAll(nil) //tagwatch:allow-droppederr fixture: proves the escape hatch
}

// Durability writers: a dropped error means state the caller believes
// persisted but was never acked to disk.
func durabilityDrops(st *statestore.Store, ck *core.Checkpointer) {
	st.Append(nil)        // want `error from \(tagwatch/internal/statestore.Store\).Append is silently dropped`
	st.AppendBatch(nil)   // want `error from \(tagwatch/internal/statestore.Store\).AppendBatch is silently dropped`
	st.WriteSnapshot(nil) // want `error from \(tagwatch/internal/statestore.Store\).WriteSnapshot is silently dropped`
	ck.AfterCycle()       // want `error from \(tagwatch/internal/core.Checkpointer\).AfterCycle is silently dropped`
	st.Close()            // Close stays exempt: teardown is best-effort.
}

func durabilityHandled(st *statestore.Store, ck *core.Checkpointer) error {
	if err := st.WriteSnapshot(nil); err != nil {
		return err
	}
	return ck.Snapshot()
}

// The overload armor: Sentinel.Do's error is the contained panic, and
// Admission.Acquire's results are the slot release plus the shed error.
func guardDrops(s *guard.Sentinel, a *guard.Admission, ctx context.Context) {
	s.Do("worker", func() {}) // want `error from \(tagwatch/internal/guard.Sentinel\).Do is silently dropped`
	a.Acquire(ctx)            // want `error from \(tagwatch/internal/guard.Admission\).Acquire is silently dropped`
}

func guardHandled(s *guard.Sentinel, a *guard.Admission, ctx context.Context) error {
	if err := s.Do("worker", func() {}); err != nil {
		return err
	}
	release, err := a.Acquire(ctx)
	if err != nil {
		return err
	}
	release(true)
	return nil
}

// A reviewed, deliberate drop stays legal — containment-only call sites
// where no restart decision rides on the error.
func guardDeliberate(s *guard.Sentinel) {
	_ = s.Do("checkpoint", func() {})
}

// The replication link and the hot standby: WaitSynced's error is the
// only evidence a quiesce point was NOT reached, Poll's error carries
// the resync-needed signal, and Start/Promote errors are the difference
// between a hot spare following the primary and nobody following it.
func replicationDrops(sh *replication.Shipper, sb *fleet.Standby, jr *statestore.JournalReader, ctx context.Context) {
	sh.WaitSynced(ctx) // want `error from \(tagwatch/internal/replication.Shipper\).WaitSynced is silently dropped`
	sb.Start(ctx)      // want `error from \(tagwatch/internal/fleet.Standby\).Start is silently dropped`
	sb.Promote(ctx)    // want `error from \(tagwatch/internal/fleet.Standby\).Promote is silently dropped`
	jr.Poll()          // want `error from \(tagwatch/internal/statestore.JournalReader\).Poll is silently dropped`
}

func replicationHandled(sh *replication.Shipper, sb *fleet.Standby, ctx context.Context) error {
	if err := sh.WaitSynced(ctx); err != nil {
		return err
	}
	_, err := sb.Promote(ctx)
	return err
}

// The fault-campaign orchestrator: a dropped Run error is a campaign
// that silently never reached a verdict.
func gauntletDrops(r *gauntlet.Runner, ctx context.Context) {
	r.Run(ctx) // want `error from \(tagwatch/internal/gauntlet.Runner\).Run is silently dropped`
}

func gauntletHandled(r *gauntlet.Runner, ctx context.Context) error {
	if _, err := r.Run(ctx); err != nil {
		return err
	}
	return nil
}

// The edge fan-out tier: Client.Run's return is the shutdown cause and
// Server.Serve's error is the downstream API dying.
func edgeDrops(c *edge.Client, s *edge.Server, ctx context.Context, lis net.Listener) {
	go c.Run(ctx)     // want `error from \(tagwatch/internal/edge.Client\).Run is silently dropped`
	s.Serve(ctx, lis) // want `error from \(tagwatch/internal/edge.Server\).Serve is silently dropped`
}

// The run-forever follower pattern stays legal when the drop is the
// reviewed blank assignment.
func edgeDeliberate(c *edge.Client, ctx context.Context) {
	go func() { _ = c.Run(ctx) }()
}

func edgeHandled(s *edge.Server, ctx context.Context, lis net.Listener) error {
	return s.Serve(ctx, lis)
}
