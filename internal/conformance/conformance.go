// Package conformance is the cross-family verification battery behind
// the decomposition registry: one table-driven property suite that any
// registered hamilton.Family passes end to end, so a new family gets
// the repository's full checking stack — decomposition validity,
// schedule feasibility, the live Theorem 3/4 oracles, and the γ-copy
// ledger postcondition — by registering. The suite is what
// `internal/hamilton/conformance_test.go` and `make families-quick`
// run; it lives outside internal/core because it drives core and
// observe together (core cannot import observe).
package conformance

import (
	"fmt"

	"ihc/internal/core"
	"ihc/internal/hamilton"
	"ihc/internal/model"
	"ihc/internal/observe"
	"ihc/internal/simnet"
)

// Options tune the battery; the zero value is the standard quick run.
type Options struct {
	// Params are the timing parameters (zero value → the repository
	// defaults τ_S=100 α=20 μ=2 D=37, with μ overridden per point).
	Params simnet.Params
	// MaxOracleN caps the sizes that run the full O(N²) copy-matrix
	// oracle leg (default 64; larger instances still run every other
	// check).
	MaxOracleN int
}

func (o Options) defaulted() Options {
	if o.Params == (simnet.Params{}) {
		o.Params = simnet.Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}
	}
	if o.MaxOracleN == 0 {
		o.MaxOracleN = 64
	}
	return o
}

// Check runs the full battery on one registry instance. A nil error
// means every property held; the error otherwise names the first
// failing property.
func Check(in *hamilton.Instance, opt Options) error {
	opt = opt.defaulted()

	// Property 1 — decomposition validity: every cycle Hamiltonian,
	// cycles pairwise edge-disjoint, full cover iff declared, and the
	// declared N/γ matching the construction. Build verifies all of it.
	g, cycles, err := in.Build()
	if err != nil {
		return fmt.Errorf("decomposition: %w", err)
	}
	if g.N() != in.N {
		return fmt.Errorf("decomposition: declared N=%d, graph has %d", in.N, g.N())
	}

	x, err := core.New(g, cycles)
	if err != nil {
		return fmt.Errorf("core rejects decomposition: %w", err)
	}
	if x.Gamma() != in.Gamma {
		return fmt.Errorf("core γ=%d, declared %d", x.Gamma(), in.Gamma)
	}

	// Theorem 3 needs the η-interleaving to divide the ring evenly;
	// odd-N families run the η = μ = 1 regime (Theorem 4), exactly as
	// the fault campaign's preflight does.
	eta := 2
	if in.N%2 != 0 {
		eta = 1
	}
	p := opt.Params
	p.Mu = eta

	// Property 2 — schedule feasibility: the static η ≥ μ schedule
	// verifies contention-free before anything is simulated.
	if err := x.VerifyContentionFree(core.Config{Eta: eta, Params: p}); err != nil {
		return fmt.Errorf("static schedule (η=μ=%d): %w", eta, err)
	}

	// Property 3 — oracle cleanliness: a live oracle on the hop stream
	// must score the run contention-free with every copy on its
	// compiled cycle and the exact Theorem 3/4 closed-form finish.
	mp := model.Params{TauS: p.TauS, Alpha: p.Alpha, Mu: p.Mu, D: p.D}
	copies := 0
	if in.N <= opt.MaxOracleN {
		copies = x.Gamma()
	}
	orc, err := observe.NewOracle(observe.OracleConfig{
		X: x, Params: p, Eta: eta,
		ExpectContentionFree: true,
		ExpectFinish:         model.IHCBest(mp, in.N, eta),
		ExpectCopies:         copies,
		Light:                copies == 0,
	})
	if err != nil {
		return fmt.Errorf("oracle setup: %w", err)
	}
	if _, err := x.Run(core.Config{Eta: eta, Params: p, SkipCopies: true, Observe: orc}); err != nil {
		return fmt.Errorf("oracle run: %w", err)
	}
	if err := orc.Finalize(); err != nil {
		return fmt.Errorf("oracle (η=μ=%d): %w", eta, err)
	}

	// Property 4 — γ-copy ledger: the full run must satisfy the exact
	// ATA postcondition in both the copy matrix and the counters-only
	// ledger.
	res, err := x.Run(core.Config{Eta: eta, Params: p, Ledger: true})
	if err != nil {
		return fmt.Errorf("ledger run: %w", err)
	}
	if err := res.Copies.VerifyATA(x.Gamma()); err != nil {
		return fmt.Errorf("copy matrix: %w", err)
	}
	if err := res.Ledger.VerifyATA(x.Gamma()); err != nil {
		return fmt.Errorf("copy ledger: %w", err)
	}
	return nil
}

// CheckFamily runs Check on every conformance size the family declares,
// returning the first failure annotated with the instance name.
func CheckFamily(f hamilton.Family, opt Options) error {
	for _, params := range f.Conformance() {
		in, err := f.New(params...)
		if err != nil {
			return fmt.Errorf("%s%v: %w", f.Key(), params, err)
		}
		if err := Check(in, opt); err != nil {
			return fmt.Errorf("%s: %w", in.Name, err)
		}
	}
	return nil
}
