package main

import (
	"fmt"
	"os"
	"time"

	"ihc/internal/campaign"
	"ihc/internal/core"
	"ihc/internal/fault"
	"ihc/internal/topology"
)

// campaign: a fixed adversary search, run sequentially.
//
// Static part: the Q6 unsigned noisy-link frontier at t = bound and
// t = bound+1 under campaign.DefaultSearch, so the live EvaluateIHC
// cross-check and the shrink-confirm through EvaluateTimed both run.
// C(192, 2) fits the search budget and is enumerated; C(192, 3) does not,
// so t = bound+1 draws DefaultSearch().Samples seeded placements.
//
// Repaired part: SQ4 broken-link points t = 1 … γ+1 through
// RunRepairedPoint, which drives the engine's controller path, the
// repair manager and the fault hook.
//
// The expected verdicts are the ones BENCH_fault.json records for Q6
// unsigned noisy links (bound 2, max_safe 2, min_broken 3; 8934 of the
// 10000 seed-1 samples at t = 3 break) and the repaired frontier the
// campaign tests pin (every connected placement up to γ+1 delivers).
const (
	frontierBound       = 2
	frontierExhaustive  = 18336 // C(192, 2)
	frontierSeed1Broken = 8934
	repairBudget        = 60
	repairSamples       = 600
)

// passCounts is what one pass must reproduce exactly on every pass of
// the same seed.
type passCounts struct {
	static   [2][2]int // per t: placements, violations
	repaired []int     // per t: placements, violations, NAKs, retransmissions
}

func (a passCounts) equal(b passCounts) bool {
	if a.static != b.static || len(a.repaired) != len(b.repaired) {
		return false
	}
	for i := range a.repaired {
		if a.repaired[i] != b.repaired[i] {
			return false
		}
	}
	return true
}

// campaignPass is one static-plus-repaired sweep.
type campaignPass struct {
	static               []*campaign.Report
	repaired             []*campaign.RepairedReport
	staticDur, repairDur time.Duration
}

func (p *campaignPass) counts() passCounts {
	var c passCounts
	for i, rep := range p.static {
		c.static[i] = [2]int{rep.Placements, rep.Violations}
	}
	for _, rep := range p.repaired {
		c.repaired = append(c.repaired, rep.Placements, rep.Violations, int(rep.Naks), int(rep.Retransmissions))
	}
	return c
}

func (p *campaignPass) placements() (static, repaired int) {
	for _, rep := range p.static {
		static += rep.Placements
	}
	for _, rep := range p.repaired {
		repaired += rep.Placements
	}
	return static, repaired
}

func (p *campaignPass) violations() int {
	v := 0
	for _, rep := range p.static {
		v += rep.Violations
	}
	return v
}

type campaignTargets struct{ q6, sq4 *core.IHC }

func runCampaign(r *run) error {
	tg, err := timeSetup(r, func(parent, op int) (campaignTargets, error) {
		q6, err := buildIHC(r.tr, parent, op, func() (*topology.Graph, error) { return topology.Hypercube(6) })
		if err != nil {
			return campaignTargets{}, err
		}
		sq4, err := buildIHC(r.tr, parent, op, func() (*topology.Graph, error) { return topology.SquareTorus(4) })
		return campaignTargets{q6, sq4}, err
	})
	if err != nil {
		return err
	}
	if r.tr != nil {
		return traceCampaign(r, tg)
	}
	var passes []*campaignPass
	var samples []sample
	var busy time.Duration
	start := time.Now()
	for another(r, start, len(passes), busy) {
		var p *campaignPass
		c, err := measure(func() error {
			var err error
			p, err = sweep(r, tg, campaign.DefaultSearch())
			return err
		})
		if err != nil {
			searchFailed(r, err)
			if len(passes) == 0 {
				return nil
			}
			break
		}
		checkPass(r, tg, p, passes)
		passes = append(passes, p)
		s, rp := p.placements()
		samples = append(samples, sample{ops: int64(s + rp), c: c})
		busy += c.wall
	}
	var static, repaired int
	var staticDur, repairDur time.Duration
	for _, p := range passes {
		s, rp := p.placements()
		static += s
		repaired += rp
		staticDur += p.staticDur
		repairDur += p.repairDur
	}
	w := walls(samples)
	setEndToEnd(r, samples, quantileDur(w, 0.5), quantileDur(w, 0.9))
	fmt.Fprintf(os.Stderr, "perfbench: campaign: %d passes, %d static placements at %.1f/s, %d repaired at %.1f/s, %d violations per pass\n",
		len(passes), static, float64(static)/staticDur.Seconds(), repaired, float64(repaired)/repairDur.Seconds(), passes[0].violations())
	return nil
}

// searchFailed records a search that stopped with an error, such as
// the structural grader disagreeing with EvaluateIHC: the run fails, and
// the placement it stopped at counts as attempted and failed.
func searchFailed(r *run, err error) {
	r.check(false, "%v", err)
	r.res.Attempted++
	r.res.Failed++
}

// sweep runs one pass, with spans when r is traced.
func sweep(r *run, tg campaignTargets, search campaign.Search) (*campaignPass, error) {
	p := &campaignPass{}
	op := r.tr.op()
	root := r.tr.begin("campaign", 0, op)
	defer r.tr.end(root)
	t0 := time.Now()
	for t := frontierBound; t <= frontierBound+1; t++ {
		s := r.tr.begin("campaign.RunPoint", root, op)
		rep, err := campaign.RunPoint(campaign.Point{
			X: tg.q6, Domain: campaign.DomainLinks, Kind: fault.Corrupt, T: t, Seed: r.seed,
		}, search)
		r.tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("Q6 noisy links t=%d: %w", t, err)
		}
		p.static = append(p.static, rep)
	}
	p.staticDur = time.Since(t0)
	t0 = time.Now()
	rsearch := campaign.Search{Budget: repairBudget, Samples: repairSamples}
	for t := 1; t <= tg.sq4.Gamma()+1; t++ {
		s := r.tr.begin("campaign.RunRepairedPoint", root, op)
		rep, err := campaign.RunRepairedPoint(tg.sq4, t, rsearch, r.seed)
		r.tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("SQ4 repaired t=%d: %w", t, err)
		}
		p.repaired = append(p.repaired, rep)
	}
	p.repairDur = time.Since(t0)
	return p, nil
}

// checkPass compares one pass with the recorded frontier and with the
// passes before it, and counts its placements as attempted or failed.
func checkPass(r *run, tg campaignTargets, p *campaignPass, before []*campaignPass) {
	safe, broken := p.static[0], p.static[1]
	ok := r.check(safe.Exhaustive && safe.Placements == frontierExhaustive && safe.Violations == 0,
		"Q6 t=%d: exhaustive=%v placements=%d violations=%d, want exhaustive %d placements, 0 violations",
		safe.T, safe.Exhaustive, safe.Placements, safe.Violations, frontierExhaustive)
	r.res.Attempted += int64(safe.Placements)
	if !ok {
		r.res.Failed += int64(safe.Placements)
	}
	ok = r.check(!broken.Exhaustive && broken.Placements == campaign.DefaultSearch().Samples,
		"Q6 t=%d: exhaustive=%v placements=%d, want %d samples", broken.T, broken.Exhaustive, broken.Placements, campaign.DefaultSearch().Samples)
	ok = r.check(broken.Violations > 0 && broken.Confirmed && broken.CounterexampleT == frontierBound+1,
		"Q6 t=%d: %d violations, confirmed=%v, counterexample size %d; the frontier says it breaks with a %d-link counterexample",
		broken.T, broken.Violations, broken.Confirmed, broken.CounterexampleT, frontierBound+1) && ok
	if r.seed == 1 {
		ok = r.check(broken.Violations == frontierSeed1Broken, "Q6 t=%d seed 1: %d violations, BENCH_fault.json records %d",
			broken.T, broken.Violations, frontierSeed1Broken) && ok
	}
	r.res.Attempted += int64(broken.Placements)
	if !ok {
		r.res.Failed += int64(broken.Placements)
	}
	for _, rep := range p.repaired {
		ok := r.check(rep.Violations == 0 && rep.Placements > 0,
			"SQ4 repaired t=%d: %d violations over %d placements; the repaired frontier is safe through γ+1 = %d",
			rep.T, rep.Violations, rep.Placements, tg.sq4.Gamma()+1)
		r.res.Attempted += int64(rep.Placements)
		if !ok {
			r.res.Failed += int64(rep.Violations)
		}
	}
	if len(before) > 0 {
		r.check(p.counts().equal(before[0].counts()), "pass %d counts %+v differ from pass 1 %+v",
			len(before)+1, p.counts(), before[0].counts())
	}
}

// traceCampaign is the traced run of campaign: one pass without and one
// with spans, then the layer probes.
func traceCampaign(r *run, tg campaignTargets) error {
	tr := r.tr
	var untraced, traced *campaignPass
	r.tr = nil
	uc, err := measure(func() error {
		var err error
		untraced, err = sweep(r, tg, campaign.DefaultSearch())
		return err
	})
	r.tr = tr
	if err != nil {
		searchFailed(r, err)
		return nil
	}
	checkPass(r, tg, untraced, nil)
	tc, err := measure(func() error {
		var err error
		traced, err = sweep(r, tg, campaign.DefaultSearch())
		return err
	})
	if err != nil {
		searchFailed(r, err)
		return nil
	}
	checkPass(r, tg, traced, []*campaignPass{untraced})
	perPass := func(p *campaignPass) int64 { s, rp := p.placements(); return int64(s + rp) }
	setOverhead(r, cpuUsPerOp(tc, perPass(traced)), cpuUsPerOp(uc, perPass(untraced)))
	return probeLayers(r)
}
