package core

// Descriptors reports how many packet descriptors sit on the extension's
// free list and how many it ever made; equal on a drained NIC.
func (e *Ext) Descriptors() (free, made int) { return len(e.descFree), e.descMade }
