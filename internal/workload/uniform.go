package workload

import (
	"fmt"
	"math/rand"

	"dvbp/internal/item"
	"dvbp/internal/vector"
)

// UniformConfig is the paper's Table 2 parameterisation.
type UniformConfig struct {
	// D is the number of resource dimensions (paper: 1, 2, 5).
	D int
	// N is the number of items per instance (paper: 1000).
	N int
	// Mu is the maximum (integral) item duration; durations are uniform on
	// [1, Mu] (paper: 1, 2, 5, 10, 100, 200).
	Mu int
	// T is the sequence span; arrivals are uniform integers on [0, T-Mu]
	// (paper: 1000).
	T int
	// B is the integral bin capacity per dimension; item sizes are uniform
	// integers on [1, B], normalised by B (paper: 100).
	B int
}

// Validate checks the configuration is generatable.
func (c UniformConfig) Validate() error {
	switch {
	case c.D < 1:
		return fmt.Errorf("workload: D = %d, want >= 1", c.D)
	case c.N < 1:
		return fmt.Errorf("workload: N = %d, want >= 1", c.N)
	case c.Mu < 1:
		return fmt.Errorf("workload: Mu = %d, want >= 1", c.Mu)
	case c.B < 1:
		return fmt.Errorf("workload: B = %d, want >= 1", c.B)
	case c.T < c.Mu:
		return fmt.Errorf("workload: T = %d < Mu = %d", c.T, c.Mu)
	}
	return nil
}

// PaperDefaults returns Table 2's fixed parameters with the given d and μ.
func PaperDefaults(d, mu int) UniformConfig {
	return UniformConfig{D: d, N: 1000, Mu: mu, T: 1000, B: 100}
}

// Uniform generates one instance of the paper's experimental model.
func Uniform(cfg UniformConfig, seed int64) (*item.List, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	l := &item.List{Dim: cfg.D, Items: make([]item.Item, 0, cfg.N)}
	// One array holds every size. Each item's Size is a window of it whose
	// capacity is its length, so an append to one size cannot overwrite the
	// next.
	sizes := make([]float64, cfg.N*cfg.D)
	for i := 0; i < cfg.N; i++ {
		arrival := float64(r.Intn(cfg.T - cfg.Mu + 1))
		duration := float64(1 + r.Intn(cfg.Mu))
		size := vector.Vector(sizes[i*cfg.D : (i+1)*cfg.D : (i+1)*cfg.D])
		for j := range size {
			size[j] = float64(1+r.Intn(cfg.B)) / float64(cfg.B)
		}
		l.Add(arrival, arrival+duration, size)
	}
	return l, nil
}
