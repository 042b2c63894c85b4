// Package alpha is the engine-test fixture: it exercises the static
// call edges (direct, recursive, go and defer calls), a call through an
// interface that resolves to no edge, and the //lint:ignore directive
// machinery.
package alpha

// Runner is the dispatch interface.
type Runner interface {
	Run(x int) int
}

// Impl is alpha's concrete Runner.
type Impl struct{ n int }

// Run implements Runner.
func (i *Impl) Run(x int) int { return x + i.n }

// Helper is a plain function.
func Helper(x int) int { return x * 2 }

// Direct calls Helper statically.
func Direct() int { return Helper(1) }

// Recurse calls itself.
func Recurse(n int) int {
	if n <= 0 {
		return 0
	}
	return Recurse(n - 1)
}

// Dispatch calls through the interface: no static edge.
func Dispatch(r Runner) int { return r.Run(3) }

// Spawn calls Direct in a go statement and Helper in a defer.
func Spawn() {
	go Direct()
	defer Helper(2)
}

// Sorted carries an in-place suppression the engine must index.
func Sorted(m map[string]int) []string {
	var out []string
	//lint:ignore determinism callers sort before any ordered use
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Hot calls Helper statically.
func Hot() int { return Helper(3) }
