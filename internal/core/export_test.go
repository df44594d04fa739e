package core

// Descriptors reports the NIC's packet-descriptor free list (gm.NIC.Descriptors).
func (e *Ext) Descriptors() (free, made int) { return e.nic.Descriptors() }
