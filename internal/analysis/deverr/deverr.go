// Package deverr enforces the error-propagation invariant introduced
// with the error-aware cycle pipeline: failures from the device and
// transport layers must never be silently dropped. A core.Device that
// returns an error after emitting partial readings is reporting "the link
// is dying", and a call site that discards it turns a dying transport back
// into an invisible empty RF field — exactly the bug class the pipeline
// was built to kill.
//
// The same invariant covers durability: statestore.Store's writers and
// its checkpoint methods (Restore, Journal, Snapshot) return "your state
// did NOT reach stable storage" as an error, and dropping it silently
// converts a durable system into one that merely looks durable until the
// first crash.
//
// The analyzer flags statements that invoke an error-returning method
// on one of the watched types (core.Device and its implementations,
// llrp.Conn/Server/Proxy, the fleet manager/bus/registry, the durable
// statestore.Store) and discard
// every result — a bare expression statement or a `go` statement.
// Assigning the error to blank (`_ = dev.ReadAll(emit)`-style) is treated
// as a reviewed, deliberate drop and stays legal, as do `Close`
// methods (teardown is best-effort by convention; CloseConnection,
// which performs the LLRP handshake, is still checked).
//
// Suppress a deliberate drop with //tagwatch:allow-droppederr <why>.
package deverr

import (
	"go/ast"

	"tagwatch/internal/analysis"
)

// watched maps package path -> type names whose error-returning methods
// must not be dropped.
var watched = map[string]map[string]bool{
	"tagwatch/internal/core": {
		"Device": true, "SimDevice": true, "LLRPDevice": true,
	},
	"tagwatch/internal/llrp": {
		"Conn": true, "Server": true, "Proxy": true,
	},
	"tagwatch/internal/fleet": {
		"Manager": true, "Bus": true, "Registry": true,
		// Standby.Start/Promote errors are the difference between "a hot
		// spare is following the primary" and "nobody is".
		"Standby": true,
	},
	// The durable store's writers: a dropped Append/WriteSnapshot error,
	// or a dropped Journal/Snapshot error from the checkpoint protocol, is
	// state the operator believes persisted but was never acked to disk.
	// JournalReader's Poll/Next errors carry ErrCursorGone — the signal
	// that a tailer must resync from a snapshot; dropping one ships a
	// silently incomplete stream.
	"tagwatch/internal/statestore": {
		"Store": true, "JournalReader": true,
	},
	// The replication link: Shipper.WaitSynced's error is the only
	// evidence a quiesce point was NOT reached — dropping it turns a
	// planned failover into data loss.
	"tagwatch/internal/replication": {
		"Shipper": true, "Standby": true,
	},
	// The overload armor: Sentinel.Do returns the contained panic — the
	// only evidence a supervised component just crashed — and
	// Admission.Acquire returns the slot's release func alongside its
	// error. Dropping either erases a crash or leaks a concurrency slot.
	"tagwatch/internal/guard": {
		"Sentinel": true, "Admission": true,
	},
	// The fault-campaign orchestrator: Runner.Run's error is the
	// difference between "the campaign reached a verdict" and "no verdict
	// exists" — dropping it leaves a fault campaign silently unjudged.
	"tagwatch/internal/gauntlet": {
		"Runner": true,
	},
	// The fan-out tier: Client.Run only returns at context cancellation
	// (its error is the shutdown cause) and Server.Serve's error is the
	// downstream API dying — dropping either leaves an edge that looks
	// alive but serves nothing.
	"tagwatch/internal/edge": {
		"Client": true, "Server": true,
	},
}

// exemptMethods are error-returning methods whose drop is conventional.
var exemptMethods = map[string]bool{
	"Close": true,
}

// Analyzer flags dropped errors from device/transport/fleet methods.
var Analyzer = &analysis.Analyzer{
	Name:      "deverr",
	Directive: "allow-droppederr",
	Doc: `flag silently dropped errors from core.Device, llrp.Conn/Server, and fleet methods

The cycle pipeline distinguishes "transport failed" from "no tags in
the field" only if every call site propagates device and connection
errors. Discarding one re-introduces the silent-failure mode PR 2
removed. Handle the error, assign it to _ deliberately, or annotate
with //tagwatch:allow-droppederr.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		var call *ast.CallExpr
		switch n := n.(type) {
		case *ast.ExprStmt:
			call, _ = n.X.(*ast.CallExpr)
		case *ast.GoStmt:
			call = n.Call
		case *ast.DeferStmt:
			// Deferred teardown (e.g. `defer conn.CloseConnection(ctx)`)
			// has nowhere to send the error; leave defer to reviewers.
			return true
		}
		if call == nil {
			return true
		}
		fn := analysis.Callee(pass.TypesInfo, call)
		if fn == nil || !analysis.ReturnsError(fn) || exemptMethods[fn.Name()] {
			return true
		}
		pkgPath, typeName := analysis.ReceiverNamed(fn)
		if pkgPath == "" || !watched[pkgPath][typeName] {
			return true
		}
		pass.Reportf(call.Pos(), "error from (%s.%s).%s is silently dropped; the error pipeline must propagate or deliberately discard it (err handling, `_ =`, or //tagwatch:allow-droppederr)",
			pkgPath, typeName, fn.Name())
		return true
	})
	return nil
}
