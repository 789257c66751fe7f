package parallel

import (
	"math/bits"
	"sync"
)

// ClassPool recycles slices in power-of-two capacity classes: Get(n)
// reslices a pooled slice of class ceil(log2(n)), so nearly-equal lengths
// (ring chunk boundaries differ by one element across ranks) share buffers
// instead of each pinning their own. Retained capacity is bounded by Max
// elements: Put drops a slice beyond the bound — unless its class is
// empty, because a slice bigger than the whole budget must still
// round-trip through the pool, or every use of that size would allocate.
// Slices whose capacity is not a class size are never pooled. Set Max
// before first use; the pool is otherwise ready as a zero value.
type ClassPool[T any] struct {
	Max      int64
	mu       sync.Mutex
	byClass  [64][][]T // class i holds capacity exactly 2^i
	retained int64     // total capacity currently pooled, in elements
}

func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Get returns a slice of length n, recycled when its class has one.
func (p *ClassPool[T]) Get(n int) []T {
	if n == 0 {
		return nil
	}
	c := sizeClass(n)
	p.mu.Lock()
	if list := p.byClass[c]; len(list) > 0 {
		b := list[len(list)-1]
		p.byClass[c] = list[:len(list)-1]
		p.retained -= int64(cap(b))
		p.mu.Unlock()
		return b[:n]
	}
	p.mu.Unlock()
	// Allocate the full class capacity so the slice serves every length
	// in its class when it comes back.
	return make([]T, 1<<c)[:n]
}

// Put recycles b. The caller must not use b afterwards.
func (p *ClassPool[T]) Put(b []T) {
	if cap(b) == 0 {
		return
	}
	c := sizeClass(cap(b))
	if 1<<c != cap(b) {
		return // not class-aligned (a foreign slice): leave it to the GC
	}
	p.mu.Lock()
	if len(p.byClass[c]) == 0 || p.retained+int64(cap(b)) <= p.Max {
		p.retained += int64(cap(b))
		p.byClass[c] = append(p.byClass[c], b)
	}
	p.mu.Unlock()
}

// Retained returns the capacity currently pooled, in elements.
func (p *ClassPool[T]) Retained() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.retained
}

// Drain releases every pooled slice to the GC.
func (p *ClassPool[T]) Drain() {
	p.mu.Lock()
	p.byClass = [64][][]T{}
	p.retained = 0
	p.mu.Unlock()
}
