//go:build race

package fabric

// scrubbed is the Payload of a packet whose delivery is over.
type scrubbed struct{}

// scrub overwrites a recycled traversal record's packet with a sentinel no
// upper layer accepts, so a Deliver callback or fault hook that keeps the
// *Packet past its call fails the -race test and smoke runs loudly instead
// of reading the next packet to use the record.
func scrub(p *Packet) { *p = Packet{Src: -1, Dst: -1, Size: -1, Payload: scrubbed{}} }
