//go:build !race

package gm

import "repro/internal/fabric"

// frameSeal is empty outside -race builds: see seal_race.go.
type frameSeal struct{}

func (f *Frame) seal(fabric.NodeID)   {}
func (f *Frame) verify(fabric.NodeID) {}
