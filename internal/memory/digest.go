package memory

import "genima/internal/sim"

// DigestInto folds the pool's buffer size. Pooled buffers are fungible
// host caches (every Get is fully overwritten), so the free-list depth
// and the hit/miss counters fold as zeros.
func (p *BufPool) DigestInto(d *sim.Digest) {
	d.U64(uint64(p.size))
	d.U64(0)
	d.U64(0)
	d.U64(0)
}

// DigestInto folds the node's materialized page copies and twins —
// presence and full contents — plus the buffer pool state. Page data is
// protocol state (diffs are computed from it), so a restore that
// reproduced the event prefix must reproduce every byte.
func (m *NodeMem) DigestInto(d *sim.Digest) {
	d.U64(uint64(len(m.pages)))
	for pg := range m.pages {
		d.Bool(m.pages[pg] != nil)
		if m.pages[pg] != nil {
			d.Bytes(m.pages[pg])
		}
		d.Bool(m.twins[pg] != nil)
		if m.twins[pg] != nil {
			d.Bytes(m.twins[pg])
		}
	}
	m.pool.DigestInto(d)
}
