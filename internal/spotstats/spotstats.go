// Package spotstats provides the statistical analyses the paper's
// modeling choices rest on: descriptive per-zone price diagnostics, a
// Chapman-Kolmogorov check of the Markov property of the price sequence
// (the paper's [15]/[31] verified this for real EC2 data), the
// hour-boundary change analysis of Wee [34] (hourly price spikes in
// 2011, gone by 2014), and cross-zone price correlation (validating the
// failure-independence assumption behind the quorum availability
// model).
package spotstats

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/market"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ZoneReport summarizes one zone's price behaviour.
type ZoneReport struct {
	Zone            string
	Type            market.InstanceType
	Minutes         int64
	Changes         int
	ChangesPerHour  float64
	MeanPrice       market.Money
	MaxPrice        market.Money
	OnDemand        market.Money
	FractionAboveOD float64
	SojournMinutes  stats.Summary
	// LevelOccupancy maps each observed price to its time share.
	LevelOccupancy []LevelShare
}

// LevelShare is one price level's share of time.
type LevelShare struct {
	Price market.Money
	Share float64
}

// Analyze produces descriptive statistics for a zone trace.
func Analyze(tr *trace.Trace) (*ZoneReport, error) {
	if tr.End <= tr.Start {
		return nil, fmt.Errorf("spotstats: empty trace")
	}
	od, err := market.OnDemandPrice(tr.Zone, tr.Type)
	if err != nil {
		return nil, err
	}
	runs := tr.Sojourns()
	r := &ZoneReport{
		Zone:            tr.Zone,
		Type:            tr.Type,
		Minutes:         tr.End - tr.Start,
		Changes:         len(runs) - 1,
		MeanPrice:       tr.MeanPrice(),
		MaxPrice:        tr.MaxPrice(),
		OnDemand:        od,
		FractionAboveOD: tr.FractionAbove(od),
	}
	r.ChangesPerHour = float64(r.Changes) / (float64(r.Minutes) / 60)
	durations := make([]float64, len(runs))
	occ := map[market.Money]int64{}
	for i, run := range runs {
		durations[i] = float64(run.Minutes)
		occ[run.Price] += run.Minutes
	}
	r.SojournMinutes = stats.Summarize(durations)
	prices := make([]market.Money, 0, len(occ))
	for p := range occ {
		prices = append(prices, p)
	}
	sort.Slice(prices, func(a, b int) bool { return prices[a] < prices[b] })
	for _, p := range prices {
		r.LevelOccupancy = append(r.LevelOccupancy, LevelShare{
			Price: p,
			Share: float64(occ[p]) / float64(r.Minutes),
		})
	}
	return r, nil
}

// CKReport is the Chapman-Kolmogorov consistency check of the embedded
// price-change chain: if the sequence is Markov, the empirical two-step
// transition matrix matches the square of the one-step matrix.
type CKReport struct {
	States int
	// MaxAbsDiff and MeanAbsDiff compare P_emp^(2) against (P_emp)^2
	// entry-wise over rows with enough support.
	MaxAbsDiff  float64
	MeanAbsDiff float64
	// RowsTested counts the (i, j) pairs compared.
	RowsTested int
}

// ckMinSupport is the fewest two-step departures a state needs for its
// row to be compared.
const ckMinSupport = 20

// ChapmanKolmogorov runs the Markov-property check on a trace's price
// sequence, over the rows of states with at least ckMinSupport two-step
// departures.
func ChapmanKolmogorov(tr *trace.Trace) (*CKReport, error) {
	runs := tr.Sojourns()
	if len(runs) < 3 {
		return nil, fmt.Errorf("spotstats: trace too short for a CK check")
	}
	idx := map[market.Money]int{}
	var seq []int
	for _, run := range runs {
		i, ok := idx[run.Price]
		if !ok {
			i = len(idx)
			idx[run.Price] = i
		}
		seq = append(seq, i)
	}
	n := len(idx)
	one := make([][]float64, n)
	two := make([][]float64, n)
	oneCount := make([]int, n)
	twoCount := make([]int, n)
	for i := range one {
		one[i] = make([]float64, n)
		two[i] = make([]float64, n)
	}
	for k := 0; k+1 < len(seq); k++ {
		one[seq[k]][seq[k+1]]++
		oneCount[seq[k]]++
	}
	for k := 0; k+2 < len(seq); k++ {
		two[seq[k]][seq[k+2]]++
		twoCount[seq[k]]++
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if oneCount[i] > 0 {
				one[i][j] /= float64(oneCount[i])
			}
			if twoCount[i] > 0 {
				two[i][j] /= float64(twoCount[i])
			}
		}
	}
	// (P)^2
	sq := make([][]float64, n)
	for i := range sq {
		sq[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				sq[i][j] += one[i][k] * one[k][j]
			}
		}
	}
	rep := &CKReport{States: n}
	sum := 0.0
	for i := 0; i < n; i++ {
		if twoCount[i] < ckMinSupport {
			continue
		}
		for j := 0; j < n; j++ {
			d := math.Abs(two[i][j] - sq[i][j])
			if d > rep.MaxAbsDiff {
				rep.MaxAbsDiff = d
			}
			sum += d
			rep.RowsTested++
		}
	}
	if rep.RowsTested > 0 {
		rep.MeanAbsDiff = sum / float64(rep.RowsTested)
	}
	return rep, nil
}

// HourBoundaryReport quantifies Wee's 2011 observation: whether price
// changes cluster at hour boundaries.
type HourBoundaryReport struct {
	Changes int
	// NearBoundary counts changes within ±2 minutes of a wall-clock
	// hour; Expected is the count a uniform distribution would give.
	NearBoundary int
	Expected     float64
	// Ratio = NearBoundary / Expected: ~1 means no hourly clustering
	// (the 2014 regime), >> 1 means hourly repricing (the 2011 regime).
	Ratio float64
}

// HourBoundary measures hour-boundary clustering of price changes.
func HourBoundary(tr *trace.Trace) *HourBoundaryReport {
	rep := &HourBoundaryReport{}
	for _, p := range tr.Points[1:] { // skip the span-start point
		rep.Changes++
		m := p.Minute % 60
		if m <= 2 || m >= 58 {
			rep.NearBoundary++
		}
	}
	rep.Expected = float64(rep.Changes) * 5.0 / 60.0
	if rep.Expected > 0 {
		rep.Ratio = float64(rep.NearBoundary) / rep.Expected
	}
	return rep
}

// Correlation returns the Pearson correlation of two zones' hourly mean
// prices over their common span — near zero validates the
// failure-independence assumption across availability zones.
func Correlation(a, b *trace.Trace) (float64, error) {
	lo := a.Start
	if b.Start > lo {
		lo = b.Start
	}
	hi := a.End
	if b.End < hi {
		hi = b.End
	}
	if hi-lo < 2*60 {
		return 0, fmt.Errorf("spotstats: overlap too short")
	}
	var xs, ys []float64
	for h := lo; h+60 <= hi; h += 60 {
		xs = append(xs, hourMean(a, h))
		ys = append(ys, hourMean(b, h))
	}
	return pearson(xs, ys), nil
}

func hourMean(tr *trace.Trace, from int64) float64 {
	w := tr.Window(from, from+60)
	return w.MeanPrice().Dollars()
}

func pearson(xs, ys []float64) float64 {
	mx, my := stats.Mean(xs), stats.Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// MemorylessnessReport quantifies why the paper uses a *semi*-Markov
// model: sojourn times between price changes are not exponentially
// distributed (not memoryless), measured by the Kolmogorov-Smirnov
// distance between the empirical sojourn distribution and an
// exponential with the same mean.
type MemorylessnessReport struct {
	Sojourns int
	MeanMin  float64
	// KS is the Kolmogorov-Smirnov statistic against Exp(1/mean);
	// values well above the ~1.36/sqrt(n) significance bound reject
	// memorylessness.
	KS float64
	// SignificanceBound is the 5% KS critical value for this sample.
	SignificanceBound float64
	// CoefficientOfVariation: 1 for exponential; lower = more regular.
	CoefficientOfVariation float64
}

// Memorylessness runs the sojourn-distribution check on a trace.
func Memorylessness(tr *trace.Trace) (*MemorylessnessReport, error) {
	runs := tr.Sojourns()
	if len(runs) < 10 {
		return nil, fmt.Errorf("spotstats: %d sojourns too few", len(runs))
	}
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = float64(r.Minutes)
	}
	sort.Float64s(xs)
	mean := stats.Mean(xs)
	if mean <= 0 {
		return nil, fmt.Errorf("spotstats: degenerate sojourns")
	}
	ks := 0.0
	n := float64(len(xs))
	for i, x := range xs {
		f := 1 - math.Exp(-x/mean) // exponential CDF
		lo := float64(i) / n
		hi := float64(i+1) / n
		if d := math.Abs(f - lo); d > ks {
			ks = d
		}
		if d := math.Abs(f - hi); d > ks {
			ks = d
		}
	}
	sd := math.Sqrt(stats.Variance(xs))
	return &MemorylessnessReport{
		Sojourns:               len(xs),
		MeanMin:                mean,
		KS:                     ks,
		SignificanceBound:      1.36 / math.Sqrt(n),
		CoefficientOfVariation: sd / mean,
	}, nil
}
