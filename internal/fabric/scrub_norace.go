//go:build !race

package fabric

// scrub drops a recycled traversal record's packet references.
func scrub(p *Packet) { *p = Packet{} }
