package trace

import (
	"errors"
	"math"

	"decaynet/internal/core"
	"decaynet/internal/geom"
	"decaynet/internal/rng"
)

// SynthConfig parameterizes Synthesize. Zero fields take the defaults
// noted on each knob.
type SynthConfig struct {
	// N is the node count (default 64).
	N int
	// Side is the square deployment extent (default 50).
	Side float64
	// Alpha is the ground-truth path-loss exponent (default 3).
	Alpha float64
	// TXPowerDBm is the simulated transmit power (default 0 dBm).
	TXPowerDBm float64
	// ShadowSigmaDB is the per-unordered-pair log-normal shadowing
	// deviation (default 4 dB, negative for none); both directions share a
	// shadow sample.
	ShadowSigmaDB float64
	// AsymSigmaDB is the per-ordered-pair asymmetric offset deviation
	// (default 1 dB, negative for none) — hardware gain mismatch, the
	// reciprocity breaker.
	AsymSigmaDB float64
	// NoiseSigmaDB is the per-reading measurement noise (default 0.5 dB,
	// negative for none).
	NoiseSigmaDB float64
	// Repeats is the number of readings attempted per ordered pair
	// (default 3).
	Repeats int
	// DropRate is the probability each attempted reading is lost
	// (default 0, clamped to [0, 1)).
	DropRate float64
	// Seed drives all randomness; equal configs yield equal campaigns.
	Seed uint64
}

// defaultSigma maps the zero value to def and negative (explicitly "no
// noise") to 0.
func defaultSigma(v, def float64) float64 {
	if v == 0 {
		return def
	}
	if v < 0 {
		return 0
	}
	return v
}

// Synth is a generated campaign together with its ground truth: the node
// geometry and exponent behind the readings, for validating imputation and
// recovered metricity against known answers.
type Synth struct {
	Campaign *Campaign
	Points   []geom.Point
	Alpha    float64
}

// Synthesize generates a measurement campaign from geometric ground truth:
// nodes uniform in a square, RSSI = TX − 10α·log10(d) plus symmetric
// log-normal shadowing, plus an asymmetric per-direction offset, plus
// per-reading noise, with each attempted reading dropped at DropRate.
// It exercises exactly the defects the cleaning pipeline handles —
// repeats, asymmetry and missing pairs — at any scale.
func Synthesize(cfg SynthConfig) (*Synth, error) {
	n := cfg.N
	if n == 0 {
		n = 64
	}
	if n < 2 {
		return nil, errors.New("trace: Synthesize needs at least 2 nodes")
	}
	if cfg.Side == 0 {
		cfg.Side = 50
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 3
	}
	cfg.ShadowSigmaDB = defaultSigma(cfg.ShadowSigmaDB, 4)
	cfg.AsymSigmaDB = defaultSigma(cfg.AsymSigmaDB, 1)
	cfg.NoiseSigmaDB = defaultSigma(cfg.NoiseSigmaDB, 0.5)
	if cfg.Repeats <= 0 {
		cfg.Repeats = 3
	}
	if cfg.DropRate < 0 || cfg.DropRate >= 1 {
		cfg.DropRate = 0
	}
	src := rng.New(cfg.Seed)
	points := make([]geom.Point, n)
	for i := range points {
		points[i] = geom.Pt(src.Range(0, cfg.Side), src.Range(0, cfg.Side))
	}
	c := &Campaign{Readings: make([]Reading, 0, n*(n-1)*cfg.Repeats)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d := points[i].Dist(points[j])
			if d <= 0 {
				d = 1e-9 // coincident draws are measure-zero; keep RSSI finite
			}
			base := cfg.TXPowerDBm - 10*cfg.Alpha*math.Log10(d)
			shadowSrc := rng.SymmetricPairStream(cfg.Seed^0x5aad, i, j)
			shadow := shadowSrc.Normal() * cfg.ShadowSigmaDB
			pair := rng.PairStream(cfg.Seed^0xa5f3, i, j)
			asym := pair.Normal() * cfg.AsymSigmaDB
			for r := 0; r < cfg.Repeats; r++ {
				if cfg.DropRate > 0 && pair.Float64() < cfg.DropRate {
					continue
				}
				c.add(Reading{
					TX:      i,
					RX:      j,
					RSSIdBm: base + shadow + asym + pair.Normal()*cfg.NoiseSigmaDB,
					T:       float64(r),
				})
			}
		}
	}
	// Dropped readings can silently shrink N when the top node loses every
	// measurement; pin it to the generated node count.
	c.N = n
	return &Synth{Campaign: c, Points: points, Alpha: cfg.Alpha}, nil
}

// ExportConfig parameterizes FromSpace, the instance→campaign exporter
// behind scenegen's -trace mode.
type ExportConfig struct {
	// TXPowerDBm is the simulated transmit power (default 0 dBm).
	TXPowerDBm float64
	// Repeats is the number of readings per ordered pair (default 3).
	Repeats int
	// NoiseSigmaDB is per-reading measurement noise (default 0.5 dB,
	// negative for none).
	NoiseSigmaDB float64
	// DropRate drops each attempted reading (default 0, clamped to [0,1)).
	DropRate float64
	// Seed drives the noise and drops.
	Seed uint64
}

// FromSpace exports a decay space as a synthetic measurement campaign:
// every ordered pair's decay becomes RSSI = TX − 10·log10(f), measured
// Repeats times under per-reading noise and drops. A campaign written this
// way and re-ingested recovers the space up to the injected noise — the
// round trip the tests pin down.
func FromSpace(d core.Space, cfg ExportConfig) *Campaign {
	if cfg.Repeats <= 0 {
		cfg.Repeats = 3
	}
	cfg.NoiseSigmaDB = defaultSigma(cfg.NoiseSigmaDB, 0.5)
	if cfg.DropRate < 0 || cfg.DropRate >= 1 {
		cfg.DropRate = 0
	}
	rs := core.Rows(d)
	n := d.N()
	row := make([]float64, n)
	c := &Campaign{Readings: make([]Reading, 0, n*(n-1)*cfg.Repeats)}
	for i := 0; i < n; i++ {
		rs.Row(i, row)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			base := cfg.TXPowerDBm - 10*math.Log10(row[j])
			pair := rng.PairStream(cfg.Seed^0xe4b0, i, j)
			for r := 0; r < cfg.Repeats; r++ {
				if cfg.DropRate > 0 && pair.Float64() < cfg.DropRate {
					continue
				}
				c.add(Reading{
					TX:      i,
					RX:      j,
					RSSIdBm: base + pair.Normal()*cfg.NoiseSigmaDB,
					T:       float64(r),
				})
			}
		}
	}
	c.N = n
	return c
}
