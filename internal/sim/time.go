// Package sim provides a deterministic discrete-event simulation engine
// with a cooperative process layer.
//
// The engine maintains a virtual clock and a priority queue of events.
// Exactly one unit of work executes at a time: either an event callback or
// a simulated process (a coroutine that the engine resumes and that parks
// itself back to the engine), so simulations are single-threaded in effect
// and fully deterministic for a given seed.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since simulation start.
// A Time value is also used for durations; the arithmetic is the same.
type Time int64

// Common durations, in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Micros reports t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis reports t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String formats t with a unit appropriate to its magnitude.
func (t Time) String() string {
	switch {
	case t < 10*Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < 10*Millisecond:
		return fmt.Sprintf("%.3fµs", t.Micros())
	case t < 10*Second:
		return fmt.Sprintf("%.3fms", t.Millis())
	default:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	}
}

// Micros converts a floating-point number of microseconds to a Time.
func Micros(us float64) Time { return Time(us * float64(Microsecond)) }

// PerByte scales a per-byte cost (in nanoseconds per byte) by a byte count,
// rounding to the nearest nanosecond.
func PerByte(nsPerByte float64, bytes int) Time {
	return Time(nsPerByte*float64(bytes) + 0.5)
}
