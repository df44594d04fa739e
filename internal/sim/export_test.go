package sim

import "unsafe"

// RingHorizon is how far past its current bucket the ring holds events:
// a later one goes into the far heap.
const RingHorizon Time = ringSize << bucketShift

// EventSize is the size of one event, a slot of the engine's arena.
const EventSize = unsafe.Sizeof(event{})
