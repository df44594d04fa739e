package gm

import (
	"cmp"
	"slices"
)

// spares are the assemblies no message holds — taken back from a loan or
// released after a Keep — that MatchAssembly lands later messages in. Every
// NIC on one engine may share one pool (NIC.ShareSpares): only that engine's
// events and processes touch it, so it needs no lock, and a buffer one port
// has taken back serves the next message at any port of the shard.
//
// The pool is bucketed by buffer capacity, which slices.Grow made an
// allocator size class, so a pool sees few distinct capacities and a take
// is a binary search, not a scan over the assemblies.
//
// The same pool keeps the engine's released frames (Frame.Release), blank,
// for NIC.NewFrame; framesMade counts the frames it has made and not
// dropped.
type spares struct {
	classes    []spareClass // sorted by capacity; emptied ones stay for reuse
	frames     []*Frame
	framesMade int
}

// spareClass holds the spares of one buffer capacity.
type spareClass struct {
	capacity int
	asms     []*Assembly
}

// findClass returns the index of the first class whose capacity is at least
// c, and whether its capacity is exactly c.
func findClass(classes []spareClass, c int) (int, bool) {
	return slices.BinarySearchFunc(classes, c, func(k spareClass, c int) int { return cmp.Compare(k.capacity, c) })
}

// put adds a to the pool.
func (s *spares) put(a *Assembly) {
	i, ok := findClass(s.classes, cap(a.ev.Data))
	if !ok {
		s.classes = slices.Insert(s.classes, i, spareClass{capacity: cap(a.ev.Data)})
	}
	s.classes[i].asms = append(s.classes[i].asms, a)
}

// take removes and returns a spare whose buffer fits msgLen most tightly.
// When none is large enough it returns the largest anyway, to be given a new
// buffer, so an engine never holds more assemblies than it had messages
// outstanding at once; nil when the pool is empty (or s is nil).
func (s *spares) take(msgLen int) *Assembly {
	if s == nil {
		return nil
	}
	i, _ := findClass(s.classes, msgLen)
	for i < len(s.classes) && len(s.classes[i].asms) == 0 {
		i++
	}
	if i == len(s.classes) {
		for i--; i >= 0 && len(s.classes[i].asms) == 0; i-- {
		}
		if i < 0 {
			return nil
		}
	}
	k := &s.classes[i]
	last := len(k.asms) - 1
	a := k.asms[last]
	k.asms[last] = nil
	k.asms = k.asms[:last]
	return a
}

// drop forgets every spare, frames included.
func (s *spares) drop() {
	if s == nil {
		return
	}
	for i := range s.classes {
		clear(s.classes[i].asms)
		s.classes[i].asms = s.classes[i].asms[:0]
	}
	s.framesMade -= len(s.frames)
	clear(s.frames)
	s.frames = s.frames[:0]
}
