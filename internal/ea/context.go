package ea

import "sync"

// Context is run-time state shared by pipeline operators across
// generations, the analogue of LEAP's global context dictionary.  The
// paper stores the vector of Gaussian-mutation standard deviations in
// context['std'] and multiplies it by the annealing factor after each
// generation (§2.2.3).
type Context struct {
	mu         sync.Mutex
	std        []float64
	generation int
	values     map[string]interface{}
}

// NewContext creates a context with an initial mutation-σ vector.
func NewContext(std []float64) *Context {
	s := make([]float64, len(std))
	copy(s, std)
	return &Context{std: s, values: make(map[string]interface{})}
}

// Std returns a copy of the current mutation standard deviations.
func (c *Context) Std() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]float64, len(c.std))
	copy(out, c.std)
	return out
}

// AnnealStd multiplies every standard deviation by factor, the per-
// generation annealing the paper applies with factor 0.85.
func (c *Context) AnnealStd(factor float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.std {
		c.std[i] *= factor
	}
}

// Generation returns the current generation counter.
func (c *Context) Generation() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.generation
}

// AdvanceGeneration increments the generation counter and returns the new
// value.
func (c *Context) AdvanceGeneration() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.generation++
	return c.generation
}

// Set stores an arbitrary named value, like LEAP's context dict entries.
func (c *Context) Set(key string, v interface{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.values[key] = v
}

// Get retrieves a named value and whether it was present.
func (c *Context) Get(key string) (interface{}, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.values[key]
	return v, ok
}
