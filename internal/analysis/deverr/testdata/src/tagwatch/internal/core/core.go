// Fixture: minimal stand-in for the real core package, matched by the
// analyzer purely on import path + type name + signature.
package core

import "time"

type Reading struct{}

type Device interface {
	ReadAll(emit func([]Reading)) error
	ReadSelective(dwell time.Duration, emit func([]Reading)) error
	Now() time.Duration
}

type SimDevice struct{}

func (d *SimDevice) ReadAll(emit func([]Reading)) error                            { return nil }
func (d *SimDevice) ReadSelective(dwell time.Duration, emit func([]Reading)) error { return nil }
func (d *SimDevice) Now() time.Duration                                            { return 0 }

type Checkpointer struct{}

func (c *Checkpointer) Restore() error    { return nil }
func (c *Checkpointer) AfterCycle() error { return nil }
func (c *Checkpointer) Snapshot() error   { return nil }
