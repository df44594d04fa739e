package sim

// RingHorizon is how far past its current bucket the ring holds events:
// a later one goes into the far heap.
const RingHorizon Time = ringSize << bucketShift
