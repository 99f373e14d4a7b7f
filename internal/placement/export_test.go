package placement

import "github.com/georep/georep/internal/cluster"

// RefineMicros runs the refine stage over an explicit micro view for a
// fresh leader, for tests outside the package.
func (s *Service) RefineMicros(micros []cluster.Micro, proposed []int) []int {
	leader := &Object{sig: make([]float64, len(s.cfg.Candidates))}
	return s.refineMicros(leader, micros, proposed)
}
