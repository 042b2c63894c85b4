package ea

import "sync"

// Context is the run-time state pipeline operators share across
// generations: the vector of Gaussian-mutation standard deviations, which
// the paper keeps in LEAP's context['std'] and multiplies by the
// annealing factor after each generation (§2.2.3).
type Context struct {
	mu  sync.Mutex
	std []float64
}

// NewContext creates a context with an initial mutation-σ vector.
func NewContext(std []float64) *Context {
	s := make([]float64, len(std))
	copy(s, std)
	return &Context{std: s}
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
