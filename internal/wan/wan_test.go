package wan

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"wanfd/internal/sim"
	"wanfd/internal/stats"
)

func TestSampleGammaMoments(t *testing.T) {
	rng := sim.NewRNG(7, "gamma")
	const shape, scale = 2.0, 3.0
	var r stats.Running
	for i := 0; i < 200000; i++ {
		x := sampleGamma(rng, shape, scale)
		if x < 0 {
			t.Fatalf("gamma sample negative: %v", x)
		}
		r.Add(x)
	}
	wantMean := shape * scale
	wantVar := shape * scale * scale
	if math.Abs(r.Mean()-wantMean) > 0.1 {
		t.Errorf("gamma mean = %v, want ≈%v", r.Mean(), wantMean)
	}
	if math.Abs(r.Variance()-wantVar) > 0.5 {
		t.Errorf("gamma variance = %v, want ≈%v", r.Variance(), wantVar)
	}
}

func TestSampleGammaShapeBelowOne(t *testing.T) {
	rng := sim.NewRNG(7, "gamma-small")
	const shape, scale = 0.5, 2.0
	var r stats.Running
	for i := 0; i < 200000; i++ {
		x := sampleGamma(rng, shape, scale)
		if x < 0 {
			t.Fatalf("gamma sample negative: %v", x)
		}
		r.Add(x)
	}
	if math.Abs(r.Mean()-shape*scale) > 0.05 {
		t.Errorf("gamma(0.5) mean = %v, want ≈%v", r.Mean(), shape*scale)
	}
}

func TestSampleParetoBounds(t *testing.T) {
	rng := sim.NewRNG(7, "pareto")
	const lo, hi = 40.0, 145.0
	for i := 0; i < 10000; i++ {
		x := samplePareto(rng, 1.5, lo, hi)
		if x < lo-1e-9 || x > hi+1e-9 {
			t.Fatalf("pareto sample %v outside [%v,%v]", x, lo, hi)
		}
	}
}

func TestConstantDelay(t *testing.T) {
	m := &ConstantDelay{D: 5 * time.Millisecond}
	if m.Sample(0) != 5*time.Millisecond || m.Sample(time.Hour) != 5*time.Millisecond {
		t.Error("constant delay should always return D")
	}
}

func TestAR1GammaDelayValidation(t *testing.T) {
	rng := sim.NewRNG(1, "x")
	bad := []AR1GammaConfig{
		{Rho: -0.1, GammaShape: 1, GammaScale: 1},
		{Rho: 1.0, GammaShape: 1, GammaScale: 1},
		{Rho: 0.5, GammaShape: 0, GammaScale: 1},
		{Rho: 0.5, GammaShape: 1, GammaScale: 0},
		{Rho: 0.5, GammaShape: 1, GammaScale: 1, SpikeProb: -0.5},
		{Rho: 0.5, GammaShape: 1, GammaScale: 1, SpikeProb: 2},
		{Rho: 0.5, GammaShape: 1, GammaScale: 1, SpikeProb: 0.1}, // spike bounds unset
	}
	for i, cfg := range bad {
		if _, err := NewAR1GammaDelay(cfg, rng); err == nil {
			t.Errorf("config %d should have been rejected: %+v", i, cfg)
		}
	}
}

func TestAR1GammaDelayIsPositiveAndCapped(t *testing.T) {
	m, err := NewAR1GammaDelay(AR1GammaConfig{
		Base:       100 * time.Millisecond,
		Rho:        0.6,
		GammaShape: 1,
		GammaScale: 5,
		SpikeProb:  0.05,
		SpikeLo:    40 * time.Millisecond,
		SpikeHi:    400 * time.Millisecond,
		Cap:        200 * time.Millisecond,
	}, sim.NewRNG(3, "d"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50000; i++ {
		d := m.Sample(0)
		if d < 100*time.Millisecond {
			t.Fatalf("delay %v below base", d)
		}
		if d > 200*time.Millisecond {
			t.Fatalf("delay %v above cap", d)
		}
	}
}

func TestAR1GammaDelayIsCorrelated(t *testing.T) {
	m, err := NewAR1GammaDelay(AR1GammaConfig{
		Rho:        0.8,
		GammaShape: 1,
		GammaScale: 5,
	}, sim.NewRNG(3, "corr"))
	if err != nil {
		t.Fatal(err)
	}
	n := 50000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(m.Sample(0))
	}
	if r1 := lag1Autocorr(xs); r1 < 0.5 {
		t.Errorf("lag-1 autocorrelation = %v, want strongly positive for rho=0.8", r1)
	}
}

func lag1Autocorr(xs []float64) float64 {
	var r stats.Running
	for _, x := range xs {
		r.Add(x)
	}
	mean := r.Mean()
	var num, den float64
	for i := 0; i < len(xs)-1; i++ {
		num += (xs[i] - mean) * (xs[i+1] - mean)
	}
	for _, x := range xs {
		den += (x - mean) * (x - mean)
	}
	return num / den
}

func TestDiurnalDelayModulates(t *testing.T) {
	inner := &ConstantDelay{D: 100 * time.Millisecond}
	d, err := NewDiurnalDelay(inner, 50*time.Millisecond, 0.5, time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	// At phase 0 the sinusoid is 0: unmodulated.
	if got := d.Sample(0); got != 100*time.Millisecond {
		t.Errorf("phase-0 sample = %v, want 100ms", got)
	}
	// At quarter period, sin = 1: variable part (50ms) scaled by 1.5.
	got := d.Sample(15 * time.Minute)
	want := 125 * time.Millisecond
	if got < want-time.Millisecond || got > want+time.Millisecond {
		t.Errorf("quarter-period sample = %v, want ≈%v", got, want)
	}
	// At three-quarter period, sin = -1: variable part scaled by 0.5.
	got = d.Sample(45 * time.Minute)
	want = 75 * time.Millisecond
	if got < want-time.Millisecond || got > want+time.Millisecond {
		t.Errorf("three-quarter sample = %v, want ≈%v", got, want)
	}
}

func TestDiurnalDelayValidation(t *testing.T) {
	inner := &ConstantDelay{D: time.Millisecond}
	if _, err := NewDiurnalDelay(inner, 0, 1.0, time.Hour, 0); err == nil {
		t.Error("amplitude 1.0 should be rejected")
	}
	if _, err := NewDiurnalDelay(inner, 0, 0.5, 0, 0); err == nil {
		t.Error("zero period should be rejected")
	}
}

func TestTraceDelayReplaysAndWraps(t *testing.T) {
	src := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	m, err := NewTraceDelay(src)
	if err != nil {
		t.Fatal(err)
	}
	src[0] = time.Hour // model must have copied the slice
	want := []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond,
		time.Millisecond, 2 * time.Millisecond,
	}
	for i, w := range want {
		if got := m.Sample(0); got != w {
			t.Errorf("sample %d = %v, want %v", i, got, w)
		}
	}
	if m.Len() != 3 {
		t.Errorf("Len = %d, want 3", m.Len())
	}
	if _, err := NewTraceDelay(nil); err == nil {
		t.Error("empty trace should be rejected")
	}
}

func TestBernoulliLoss(t *testing.T) {
	if _, err := NewBernoulliLoss(1.5, sim.NewRNG(1, "l")); err == nil {
		t.Error("p > 1 should be rejected")
	}
	m, err := NewBernoulliLoss(0.25, sim.NewRNG(1, "l"))
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if m.Lose() {
			lost++
		}
	}
	rate := float64(lost) / n
	if math.Abs(rate-0.25) > 0.01 {
		t.Errorf("loss rate = %v, want ≈0.25", rate)
	}
}

func TestGilbertElliottLoss(t *testing.T) {
	cfg := GilbertElliottConfig{
		PGoodToBad: 0.01,
		PBadToGood: 0.1,
		LossGood:   0.001,
		LossBad:    0.5,
	}
	m, err := NewGilbertElliottLoss(cfg, sim.NewRNG(9, "ge"))
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	const n = 500000
	for i := 0; i < n; i++ {
		if m.Lose() {
			lost++
		}
	}
	rate := float64(lost) / n
	want := m.StationaryLoss()
	if math.Abs(rate-want) > 0.005 {
		t.Errorf("observed loss %v, stationary prediction %v", rate, want)
	}
}

func TestGilbertElliottValidation(t *testing.T) {
	if _, err := NewGilbertElliottLoss(GilbertElliottConfig{PGoodToBad: -1}, sim.NewRNG(1, "x")); err == nil {
		t.Error("negative probability should be rejected")
	}
}

func TestGilbertElliottStationaryDegenerate(t *testing.T) {
	m, err := NewGilbertElliottLoss(GilbertElliottConfig{LossGood: 0.2}, sim.NewRNG(1, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.StationaryLoss(); got != 0.2 {
		t.Errorf("degenerate stationary loss = %v, want 0.2 (good-state loss)", got)
	}
}

func TestChannelRequiresDelayModel(t *testing.T) {
	if _, err := NewChannel(ChannelConfig{}); err == nil {
		t.Error("channel without delay model should be rejected")
	}
}

func TestChannelTransmitAndStats(t *testing.T) {
	loss, err := NewBernoulliLoss(0.5, sim.NewRNG(11, "loss"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewChannel(ChannelConfig{
		Delay: &ConstantDelay{D: 10 * time.Millisecond},
		Loss:  loss,
	})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	const n = 10000
	for i := 0; i < n; i++ {
		at, ok := c.Transmit(time.Duration(i) * time.Second)
		if ok {
			delivered++
			want := time.Duration(i)*time.Second + 10*time.Millisecond
			if at != want {
				t.Fatalf("delivery %v, want %v", at, want)
			}
		}
	}
	sent, dropped := c.Stats()
	if sent != n {
		t.Errorf("sent = %d, want %d", sent, n)
	}
	if int(dropped) != n-delivered {
		t.Errorf("dropped = %d, delivered = %d, inconsistent", dropped, delivered)
	}
	if math.Abs(c.LossRate()-0.5) > 0.05 {
		t.Errorf("loss rate = %v, want ≈0.5", c.LossRate())
	}
}

func TestChannelLossRateEmpty(t *testing.T) {
	c, err := NewChannel(ChannelConfig{Delay: &ConstantDelay{D: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	if c.LossRate() != 0 {
		t.Errorf("loss rate on fresh channel = %v, want 0", c.LossRate())
	}
}

func TestChannelFIFOOrdering(t *testing.T) {
	trace, err := NewTraceDelay([]time.Duration{
		100 * time.Millisecond, 10 * time.Millisecond, 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewChannel(ChannelConfig{Delay: trace, FIFO: true})
	if err != nil {
		t.Fatal(err)
	}
	var last time.Duration
	for i := 0; i < 3; i++ {
		at, ok := c.Transmit(time.Duration(i) * time.Millisecond)
		if !ok {
			t.Fatal("lossless channel dropped a packet")
		}
		if at < last {
			t.Fatalf("FIFO violated: delivery %v after %v", at, last)
		}
		last = at
	}
}

func TestChannelNonFIFOReorders(t *testing.T) {
	trace, err := NewTraceDelay([]time.Duration{
		100 * time.Millisecond, 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewChannel(ChannelConfig{Delay: trace})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Transmit(0)
	b, _ := c.Transmit(time.Millisecond)
	if !(b < a) {
		t.Errorf("expected reordering: second delivery %v, first %v", b, a)
	}
}

func TestItalyJapanPresetMatchesTable4(t *testing.T) {
	c, err := NewPresetChannel(PresetItalyJapan, 1234, "test")
	if err != nil {
		t.Fatal(err)
	}
	ch, err := Characterize(c, 100000, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	msec := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	if m := msec(ch.MeanDelay); m < 200 || m > 214 {
		t.Errorf("mean delay %.1f ms, want ≈206.6 (Table 4)", m)
	}
	if s := msec(ch.StdDevDelay); s < 4 || s > 12 {
		t.Errorf("stddev %.1f ms, want ≈7.6 (Table 4)", s)
	}
	if m := msec(ch.MinDelay); m < 192 || m > 196 {
		t.Errorf("min delay %.1f ms, want ≈192 (Table 4)", m)
	}
	if m := msec(ch.MaxDelay); m < 250 || m > 341 {
		t.Errorf("max delay %.1f ms, want ≈340 (Table 4)", m)
	}
	if ch.LossRate >= 0.01 {
		t.Errorf("loss rate %.4f, want < 1%% (Table 4)", ch.LossRate)
	}
	if ch.Table() == "" {
		t.Error("Table rendering empty")
	}
}

func TestPresetChannelsDiffer(t *testing.T) {
	for _, p := range []Preset{PresetItalyJapan, PresetLAN, PresetLossyMobile} {
		c, err := NewPresetChannel(p, 5, "s")
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if _, err := Characterize(c, 1000, time.Second); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
	}
	_, err := NewPresetChannel(Preset(99), 5, "s")
	var upe *UnknownPresetError
	if !errors.As(err, &upe) {
		t.Errorf("unknown preset error = %v, want UnknownPresetError", err)
	}
}

func TestPresetDeterminism(t *testing.T) {
	collect := func() []time.Duration {
		c, err := NewPresetChannel(PresetItalyJapan, 77, "det")
		if err != nil {
			t.Fatal(err)
		}
		ds, err := CollectDelays(c, 500, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delay %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCharacterizeValidation(t *testing.T) {
	c, err := NewChannel(ChannelConfig{Delay: &ConstantDelay{D: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Characterize(c, 0, time.Second); err == nil {
		t.Error("n=0 should be rejected")
	}
	if _, err := Characterize(c, 10, 0); err == nil {
		t.Error("eta=0 should be rejected")
	}
	if _, err := CollectDelays(c, 0, time.Second); err == nil {
		t.Error("CollectDelays n=0 should be rejected")
	}
	if _, err := CollectDelays(c, 10, 0); err == nil {
		t.Error("CollectDelays eta=0 should be rejected")
	}
}

// TestSummarizeDelaysMatchesCharacterize pins the two routes to a channel
// summary to one another: characterizing a channel directly, and
// summarizing the delays collected from an identically seeded one.
func TestSummarizeDelaysMatchesCharacterize(t *testing.T) {
	mobile := func() (*Channel, error) { return NewPresetChannel(PresetLossyMobile, 3, "sum") }
	allLost := func() (*Channel, error) {
		loss, err := NewBernoulliLoss(1, sim.NewRNG(1, "loss"))
		if err != nil {
			return nil, err
		}
		return NewChannel(ChannelConfig{Delay: &ConstantDelay{D: time.Millisecond}, Loss: loss})
	}
	const n = 5000
	for name, newChannel := range map[string]func() (*Channel, error){"lossy-mobile": mobile, "all-lost": allLost} {
		c1, err1 := newChannel()
		c2, err2 := newChannel()
		if err := errors.Join(err1, err2); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		direct, err := Characterize(c1, n, time.Second)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		delays, err := CollectDelays(c2, n, time.Second)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := SummarizeDelays(delays, n); got != direct {
			t.Errorf("%s: SummarizeDelays = %+v, Characterize = %+v", name, got, direct)
		}
		if wantAll := name == "all-lost"; (direct.LossRate == 1) != wantAll || direct.Samples != n {
			t.Errorf("%s: LossRate %v, Samples %d", name, direct.LossRate, direct.Samples)
		}
	}
}

// Property: a lossless FIFO channel delivers every packet with monotone
// non-decreasing delivery times regardless of the delay sequence.
func TestChannelFIFOMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		ds := make([]time.Duration, len(raw))
		for i, v := range raw {
			ds[i] = time.Duration(v) * time.Microsecond
		}
		trace, err := NewTraceDelay(ds)
		if err != nil {
			return false
		}
		c, err := NewChannel(ChannelConfig{Delay: trace, FIFO: true})
		if err != nil {
			return false
		}
		var last time.Duration
		for i := range raw {
			at, ok := c.Transmit(time.Duration(i) * time.Millisecond)
			if !ok || at < last {
				return false
			}
			last = at
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAR1GammaEpisodeValidation(t *testing.T) {
	rng := sim.NewRNG(1, "x")
	bad := []AR1GammaConfig{
		{Rho: 0.5, GammaShape: 1, GammaScale: 1, EpisodeProb: -0.1},
		{Rho: 0.5, GammaShape: 1, GammaScale: 1, EpisodeProb: 2},
		{Rho: 0.5, GammaShape: 1, GammaScale: 1, EpisodeProb: 0.1}, // bounds unset
		{Rho: 0.5, GammaShape: 1, GammaScale: 1, EpisodeProb: 0.1,
			EpisodeLo: 10 * time.Millisecond, EpisodeHi: 20 * time.Millisecond, EpisodeDecay: 1.0},
		{Rho: 0.5, GammaShape: 1, GammaScale: 1, EpisodeProb: 0.1,
			EpisodeLo: 10 * time.Millisecond, EpisodeHi: 20 * time.Millisecond, EpisodeDecay: -0.5},
	}
	for i, cfg := range bad {
		if _, err := NewAR1GammaDelay(cfg, rng); err == nil {
			t.Errorf("episode config %d should be rejected: %+v", i, cfg)
		}
	}
}

func TestAR1GammaEpisodesRaiseDelay(t *testing.T) {
	base := AR1GammaConfig{Rho: 0.5, GammaShape: 1, GammaScale: 1}
	withEpisodes := base
	withEpisodes.EpisodeProb = 0.01
	withEpisodes.EpisodeLo = 20 * time.Millisecond
	withEpisodes.EpisodeHi = 40 * time.Millisecond
	withEpisodes.EpisodeDecay = 0.99

	meanOf := func(cfg AR1GammaConfig) float64 {
		m, err := NewAR1GammaDelay(cfg, sim.NewRNG(9, "ep"))
		if err != nil {
			t.Fatal(err)
		}
		var r stats.Running
		for i := 0; i < 30000; i++ {
			r.Add(float64(m.Sample(0)))
		}
		return r.Mean()
	}
	if !(meanOf(withEpisodes) > meanOf(base)*1.5) {
		t.Error("episodes should raise the mean delay substantially")
	}
}

func TestGilbertElliottInBadState(t *testing.T) {
	m, err := NewGilbertElliottLoss(GilbertElliottConfig{
		PGoodToBad: 1, PBadToGood: 0, LossBad: 1,
	}, sim.NewRNG(1, "ge2"))
	if err != nil {
		t.Fatal(err)
	}
	if m.InBadState() {
		t.Error("should start in the good state")
	}
	m.Lose()
	if !m.InBadState() {
		t.Error("P(g→b)=1 should enter the bad state on the first packet")
	}
}

func TestPresetStringsAndErrors(t *testing.T) {
	for p, want := range map[Preset]string{
		PresetItalyJapan:  "italy-japan",
		PresetLAN:         "lan",
		PresetLossyMobile: "lossy-mobile",
		PresetBottleneck:  "bottleneck",
		Preset(99):        "unknown",
	} {
		if got := p.String(); got != want {
			t.Errorf("Preset(%d).String() = %q, want %q", p, got, want)
		}
	}
	err := &UnknownPresetError{Preset: Preset(99)}
	if err.Error() == "" {
		t.Error("error string empty")
	}
}

func TestBottleneckPreset(t *testing.T) {
	c, err := NewPresetChannel(PresetBottleneck, 7, "t")
	if err != nil {
		t.Fatal(err)
	}
	ch, err := Characterize(c, 20000, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ch.MinDelay < 40*time.Millisecond {
		t.Errorf("min %v below the 40ms floor", ch.MinDelay)
	}
	if ch.MeanDelay < 45*time.Millisecond {
		t.Errorf("mean %v shows no queueing at 80%% utilization", ch.MeanDelay)
	}
	if ch.MaxDelay > 545*time.Millisecond {
		t.Errorf("max %v exceeds base+cap", ch.MaxDelay)
	}
	if ch.LossRate > 0.01 {
		t.Errorf("loss %v, want ≈0.2%%", ch.LossRate)
	}
}

func TestCharacterizePercentiles(t *testing.T) {
	c, err := NewPresetChannel(PresetItalyJapan, 3, "pct")
	if err != nil {
		t.Fatal(err)
	}
	ch, err := Characterize(c, 20000, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !(ch.MinDelay <= ch.P50Delay && ch.P50Delay <= ch.P95Delay &&
		ch.P95Delay <= ch.P99Delay && ch.P99Delay <= ch.MaxDelay) {
		t.Errorf("percentile ordering broken: %+v", ch)
	}
	if ch.P50Delay < 190*time.Millisecond {
		t.Errorf("median %v implausible", ch.P50Delay)
	}
}
