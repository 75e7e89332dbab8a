package sense

import "voltsmooth/internal/stats"

// BelowCount and Histogram expose a scope's prefix length and sample
// histogram to the external tests, which hold them to a reference scope.
func (s *Scope) BelowCount() int             { return s.below }
func (s *Scope) Histogram() *stats.Histogram { return s.hist }
