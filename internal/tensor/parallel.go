package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// Pool is a fixed set of worker goroutines that execute contiguous index
// ranges of data-parallel kernels. It exists for the batch inference engine:
// layer kernels split their batch across pool chunks, and because every chunk
// is a disjoint row range with an unchanged per-row summation order, the
// parallel result is bit-identical to the serial one.
//
// A Pool is safe for concurrent use: each RunWith call carries its caller's
// completion WaitGroup, so independent engines can share one pool. The jobs
// it executes are plain value structs sent over a channel — the steady state
// makes no allocations.
type Pool struct {
	workers int
	jobs    chan poolJob
	closed  sync.Once
}

type poolJob struct {
	body   func(chunk, lo, hi int)
	chunk  int
	lo, hi int
	done   *sync.WaitGroup
}

// NewPool starts a pool with the given number of workers. workers <= 1
// returns a degenerate pool that runs everything inline on the caller's
// goroutine (no goroutines are started), so serial configurations pay no
// scheduling cost.
func NewPool(workers int) *Pool {
	p := &Pool{workers: workers}
	if workers <= 1 {
		p.workers = 1
		return p
	}
	p.jobs = make(chan poolJob, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for j := range p.jobs {
				j.body(j.chunk, j.lo, j.hi)
				j.done.Done()
			}
		}()
	}
	return p
}

// Workers returns the pool's worker count (1 for an inline pool).
func (p *Pool) Workers() int { return p.workers }

// Close stops the workers. RunWith calls must not be in flight or issued
// afterwards.
func (p *Pool) Close() {
	p.closed.Do(func() {
		if p.jobs != nil {
			close(p.jobs)
		}
	})
}

var (
	sharedPoolOnce sync.Once
	sharedPool     *Pool
)

// SharedPool returns the process-wide pool, sized to GOMAXPROCS and started
// on first use. On a single-core host it is an inline pool.
func SharedPool() *Pool {
	sharedPoolOnce.Do(func() {
		sharedPool = NewPool(runtime.GOMAXPROCS(0))
	})
	return sharedPool
}

// RunWith splits [0, n) into at most `chunks` contiguous ranges and executes
// body(chunk, lo, hi) for each, returning when all ranges are done. wg is the
// caller's, idle, and reused across calls, so the steady state allocates
// nothing. The caller's goroutine executes chunk 0 itself while the workers
// run the rest, so an inline pool or a single chunk degrades to a plain
// function call.
//
// Ranges are balanced: the first n%chunks ranges get one extra element.
func (p *Pool) RunWith(wg *sync.WaitGroup, n, chunks int, body func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunks > p.workers {
		chunks = p.workers
	}
	if chunks > n {
		chunks = n
	}
	if chunks <= 1 {
		body(0, 0, n)
		return
	}
	base, rem := n/chunks, n%chunks
	// chunk 0 runs on the caller; compute its bounds first
	hi0 := base
	if rem > 0 {
		hi0++
	}
	lo := hi0
	wg.Add(chunks - 1)
	for c := 1; c < chunks; c++ {
		size := base
		if c < rem {
			size++
		}
		p.jobs <- poolJob{body: body, chunk: c, lo: lo, hi: lo + size, done: wg}
		lo += size
	}
	if lo != n {
		panic(fmt.Sprintf("tensor: pool chunking covered [0, %d) of [0, %d)", lo, n))
	}
	body(0, 0, hi0)
	wg.Wait()
}
