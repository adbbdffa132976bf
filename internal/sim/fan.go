package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// FanPanic is the value Fan re-raises on its caller when a call panicked:
// the call's index, the original panic value, and the stack of the
// goroutine that panicked. Error renders all three, so an unrecovered
// FanPanic still prints where the call failed.
type FanPanic struct {
	Index int
	Value any
	Stack []byte
}

func (p *FanPanic) Error() string {
	return fmt.Sprintf("sim: fan-out call %d panicked: %v\n\n%s", p.Index, p.Value, p.Stack)
}

// Fan runs fn(0), ..., fn(n-1) and returns once every call has returned.
// The calls run inline in index order when n <= 1 or the host has one
// processor (GOMAXPROCS == 1), and each on its own goroutine otherwise, so
// they must be mutually independent. A panicking call never takes the
// process down from a goroutine the caller cannot recover on: Fan
// re-raises it on the caller as a *FanPanic, the lowest-index one when
// several calls panic. Inline execution stops at the first panic, which
// is the lowest-index one too.
func Fan(n int, fn func(i int)) {
	if n <= 1 || runtime.GOMAXPROCS(0) == 1 {
		for i := 0; i < n; i++ {
			if p := call(i, fn); p != nil {
				panic(p)
			}
		}
		return
	}
	panics := make([]*FanPanic, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			panics[i] = call(i, fn)
		}(i)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// call runs fn(i) and returns its panic, if any, with the stack captured
// where it was raised.
func call(i int, fn func(int)) (p *FanPanic) {
	defer func() {
		if r := recover(); r != nil {
			p = &FanPanic{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	fn(i)
	return nil
}
