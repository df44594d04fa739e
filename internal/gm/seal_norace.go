//go:build !race

package gm

import "repro/internal/fabric"

// frameSeal is empty outside -race builds: see seal_race.go.
type frameSeal struct{}

func (f *Frame) seal(fabric.NodeID)   {}
func (f *Frame) verify(fabric.NodeID) {}
func (f *Frame) unscrub()             {}
func (f *Frame) checkLive()           {}

// scrub blanks a released frame but for its pool.
func (f *Frame) scrub() { *f = Frame{pool: f.pool} }
