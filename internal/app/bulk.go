package app

import "genima/internal/memory"

// Bulk transfers between shared regions and private buffers. Real SVM
// programs work on cached local data between synchronization points;
// these helpers fault the covered pages once and then move bytes, so an
// inner loop (an FFT butterfly pass, a stencil sweep) runs on private
// memory exactly as it would on the real system.

// CopyOutF64 reads len(dst) float64 elements starting at element
// elemOff of region r into dst.
func (c *Ctx) CopyOutF64(r memory.Region, elemOff int, dst []float64) {
	if len(dst) == 0 {
		return
	}
	addr := r.Base + 8*elemOff
	c.ensure(addr, 8*len(dst), false)
	c.forEachSpan(addr, 8*len(dst), func(pg []byte, off, n, done int) {
		d, b := dst[done/8:(done+n)/8], pg[off:off+n]
		for i := range d {
			d[i] = getF64(b, 8*i)
		}
	})
}

// CopyInF64 writes src into region r starting at element elemOff.
func (c *Ctx) CopyInF64(r memory.Region, elemOff int, src []float64) {
	if len(src) == 0 {
		return
	}
	addr := r.Base + 8*elemOff
	c.ensure(addr, 8*len(src), true)
	c.forEachSpan(addr, 8*len(src), func(pg []byte, off, n, done int) {
		s, b := src[done/8:(done+n)/8], pg[off:off+n]
		for i, v := range s {
			putF64(b, 8*i, v)
		}
	})
}

// CopyOutI32 reads len(dst) int32 elements starting at element elemOff.
func (c *Ctx) CopyOutI32(r memory.Region, elemOff int, dst []int32) {
	if len(dst) == 0 {
		return
	}
	addr := r.Base + 4*elemOff
	c.ensure(addr, 4*len(dst), false)
	c.forEachSpan(addr, 4*len(dst), func(pg []byte, off, n, done int) {
		d, b := dst[done/4:(done+n)/4], pg[off:off+n]
		for i := range d {
			d[i] = getI32(b, 4*i)
		}
	})
}

// CopyInI32 writes src into region r starting at element elemOff.
func (c *Ctx) CopyInI32(r memory.Region, elemOff int, src []int32) {
	if len(src) == 0 {
		return
	}
	addr := r.Base + 4*elemOff
	c.ensure(addr, 4*len(src), true)
	c.forEachSpan(addr, 4*len(src), func(pg []byte, off, n, done int) {
		s, b := src[done/4:(done+n)/4], pg[off:off+n]
		for i, v := range s {
			putI32(b, 4*i, v)
		}
	})
}

// forEachSpan walks [addr, addr+size) page by page: fn receives the page
// bytes, the in-page offset, the span length, and how many bytes were
// processed before this span.
func (c *Ctx) forEachSpan(addr, size int, fn func(pg []byte, off, n, done int)) {
	done := 0
	for done < size {
		a := addr + done
		off := a & c.pageMask
		n := min(c.pageMask+1-off, size-done)
		fn(c.be.Bytes(a>>c.pageShift), off, n, done)
		done += n
	}
}
