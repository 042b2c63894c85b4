// Package beta is the cross-package half of the engine fixture.
package beta

import "alpha"

// Other has the Runner shape; alpha's interface call still resolves to
// no edge.
type Other struct{}

// Run has the Runner shape.
func (Other) Run(x int) int { return x }

// Cross calls into alpha statically across the package boundary.
func Cross() int { return alpha.Helper(5) }
