// Package service is a miniature of the real internal/service: a pool
// lends out non-thread-safe workers through get/put. The good functions
// honor the checkout contract; each bad one must draw a release
// diagnostic. The cache type proves that get(key)/put(key, v) pairs with
// other shapes are not mistaken for pools.
package service

// worker is not safe for concurrent use.
type worker struct{ n int }

// pool lends workers to one goroutine at a time.
type pool struct{ idle []*worker }

func (p *pool) get() *worker {
	if n := len(p.idle); n > 0 {
		w := p.idle[n-1]
		p.idle = p.idle[:n-1]
		return w
	}
	return &worker{}
}

func (p *pool) put(w *worker) { p.idle = append(p.idle, w) }

// goodDefer is the idiomatic checkout: defer pairs the put on every path.
func goodDefer(p *pool) int {
	w := p.get()
	defer p.put(w)
	return w.n
}

// goodLinear puts on the single straight-line path and never touches the
// worker afterwards.
func goodLinear(p *pool) int {
	w := p.get()
	n := w.n
	p.put(w)
	return n
}

// goodBranch puts in both arms, covering every path.
func goodBranch(p *pool, c bool) {
	w := p.get()
	if c {
		p.put(w)
	} else {
		p.put(w)
	}
}

// goodEarlyPut returns the worker before its early return, so both
// paths put it back.
func goodEarlyPut(p *pool, c bool) int {
	w := p.get()
	if c {
		p.put(w)
		return 0
	}
	n := w.n
	p.put(w)
	return n
}

// goodGoroutine mirrors the real service.Check: checkout confined to one
// spawned goroutine.
func goodGoroutine(p *pool, ch chan<- int) {
	go func() {
		w := p.get()
		n := w.n
		p.put(w)
		ch <- n
	}()
}

// badMissing leaks the worker: no put on the return path.
func badMissing(p *pool) int {
	w := p.get() // want `\[release\] worker from p\.get\(\) is not returned with put on every path`
	return w.n
}

// badConditional puts only when c holds; the other path leaks.
func badConditional(p *pool, c bool) {
	w := p.get() // want `\[release\] worker from p\.get\(\) is not returned with put on every path`
	if c {
		p.put(w)
	}
}

// badNestedReturn leaks on the early return inside the branch: the put
// after the if covers only the fall-through path.
func badNestedReturn(p *pool, c bool) int {
	w := p.get() // want `\[release\] worker from p\.get\(\) is not returned with put on every path`
	if c {
		return 0
	}
	n := w.n
	p.put(w)
	return n
}

// badUseAfterPut touches the worker when another goroutine may own it.
func badUseAfterPut(p *pool) int {
	w := p.get()
	p.put(w)
	return w.n // want `\[release\] worker w used after put`
}

// badDiscard drops the worker on the floor.
func badDiscard(p *pool) {
	p.get() // want `\[release\] result of p\.get\(\) discarded`
}

// cache has get/put methods whose shapes do not form a checkout pair.
type cache struct{ m map[string]int }

func (c *cache) get(k string) (int, bool) {
	v, ok := c.m[k]
	return v, ok
}

func (c *cache) put(k string, v int) { c.m[k] = v }

// usesCache exercises the non-pool get/put shapes; it must be clean.
func usesCache(c *cache) int {
	v, ok := c.get("k")
	if !ok {
		c.put("k", 1)
		return 1
	}
	return v
}
