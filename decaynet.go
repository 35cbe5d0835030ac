// Package decaynet reproduces "Beyond Geometry: Towards Fully Realistic
// Wireless Models" (Bodlaender & Halldórsson, PODC 2014): decay spaces —
// SINR wireless models over arbitrary measured decay matrices instead of
// geometric path loss — together with the paper's metricity parameter ζ,
// the fading parameter γ for distributed algorithms, the capacity
// algorithms whose approximation depends on ζ, and the hardness
// constructions bounding what is possible.
//
// The supported public surface is batch-first and built around two ideas:
//
//   - Engine: a mutable session object owning a dense decay space, a link
//     set and the radio parameters. It caches every derived product — ζ,
//     the induced quasi-metric's distance matrix, ϕ, and the dense
//     affectance matrix per power vector — so capacity, scheduling and
//     simulation never recompute them, and it absorbs topology/decay
//     churn: Engine.Update (AddLinks, RemoveLinks, SetDecayRows, MoveNode)
//     applies batched edits under a session version counter and repairs
//     the caches incrementally instead of rebuilding. Long-running entry
//     points have context-accepting forms (ZetaCtx, ScheduleCtx, …) for
//     cooperative cancellation. Hot paths consume whole matrix rows
//     through the RowSpace contract on a shared worker pool rather than
//     paying an interface call per element.
//
//   - Scenario: a name-based registry of instance sources
//     (database/sql-driver style) unifying the environment presets
//     ("office", "warehouse", "corridor"), the plane workload generators
//     ("plane", "plane-clustered") and the hardness constructions
//     ("theorem3", "theorem6", "star", "welzl", "gap", …). External
//     packages plug in their own sources with RegisterScenario.
//
// A minimal session:
//
//	eng, _ := decaynet.NewEngine(
//		decaynet.UsingScenario("office", decaynet.ScenarioConfig{Links: 20, Seed: 1}),
//		decaynet.Beta(1.5),
//	)
//	zeta := eng.Zeta()                  // computed once, cached
//	p := eng.UniformPower(1)
//	chosen := eng.Capacity(p, nil)      // Algorithm 1 over all links
//	slots, _ := eng.Schedule(p, nil)    // feasible slot schedule
//
// The type aliases and function re-exports below remain available for
// callers that want the implementation packages' vocabulary directly. The
// layering underneath is
//
//	core         decay spaces, RowSpace batching, ζ/φ, quasi-metrics, packings, γ
//	shard        row-range sharding runtime (WithShards): coordinator + workers
//	sinr         links, power, affectance (per-pair and dense batch), feasibility
//	capacity     Algorithm 1, baselines, exact optimum
//	schedule     slot scheduling
//	scenario     the pluggable instance-source registry
//	trace        measured RSSI campaign ingestion (parse, clean, impute)
//	environment  realistic scenes producing decay matrices
//	hardness     Theorem 3/6 constructions, example spaces
//	distributed  slotted simulator, local broadcast, capacity game
//	workload     plane instance generators
package decaynet

import (
	"decaynet/internal/capacity"
	"decaynet/internal/core"
	"decaynet/internal/distributed"
	"decaynet/internal/environment"
	"decaynet/internal/geom"
	"decaynet/internal/hardness"
	"decaynet/internal/schedule"
	"decaynet/internal/sinr"
	"decaynet/internal/tier"
	"decaynet/internal/trace"
	"decaynet/internal/workload"
)

// Geometry primitives used by scene construction and geometric spaces.
type (
	// Point is a point in the plane.
	Point = geom.Point
	// Segment is a wall segment.
	Segment = geom.Segment
)

// Pt and Seg construct geometry primitives.
var (
	Pt  = geom.Pt
	Seg = geom.Seg
)

// Decay spaces and metricity (the paper's Sec 2).
type (
	// Space is a decay space D = (V, f) (Def 2.1).
	Space = core.Space
	// RowSpace is the optional batch contract: Row(i, dst) fills a whole
	// decay row, the fast path every batched consumer uses.
	RowSpace = core.RowSpace
	// SymmetricSpace is the optional marker contract certifying exact
	// decay symmetry; the triplet kernels use it to halve their scans.
	SymmetricSpace = core.Symmetric
	// Matrix is a dense decay space.
	Matrix = core.Matrix
	// GeometricSpace is GEO-SINR decay f = d^α over plane points.
	GeometricSpace = core.GeometricSpace
	// QuasiMetric is the induced quasi-distance structure d = f^(1/ζ).
	QuasiMetric = core.QuasiMetric
	// AssouadOptions tunes dimension estimation.
	AssouadOptions = core.AssouadOptions
	// SampledEstimate is a sampled ζ/ϕ estimate with its concentration
	// summary (Hoeffding over stratum maxima).
	SampledEstimate = core.SampledEstimate
)

// Measured-trace ingestion (RSSI campaigns → decay spaces). A Campaign is
// parsed from CSV or JSON-lines logs of (tx, rx, rssi_dbm, t) readings and
// cleaned — per-pair aggregation, dBm→decay conversion, asymmetry audit,
// imputation — into a validated dense Matrix. The "trace" scenario and
// cmd/decaytrace wrap the same pipeline.
type (
	// Campaign is a parsed RSSI measurement campaign.
	Campaign = trace.Campaign
	// TraceReading is one raw (tx, rx, rssi_dbm, t) measurement.
	TraceReading = trace.Reading
	// TraceFormat selects a campaign wire format (TraceAuto/TraceCSV/TraceJSONL).
	TraceFormat = trace.Format
	// CleanOptions tunes the campaign cleaning pipeline.
	CleanOptions = trace.Options
	// CleanReport is the pipeline's audit trail (coverage, asymmetry,
	// imputation counts, path-loss fit).
	CleanReport = trace.Report
	// SynthConfig parameterizes synthetic campaign generation.
	SynthConfig = trace.SynthConfig
	// TraceExportConfig parameterizes exporting a space as a campaign.
	TraceExportConfig = trace.ExportConfig
)

// Campaign wire formats and per-pair aggregation modes.
const (
	TraceAuto  = trace.Auto
	TraceCSV   = trace.CSV
	TraceJSONL = trace.JSONL

	AggMedian = trace.Median
	AggMean   = trace.Mean
)

// Campaign parsing, cleaning, generation and export.
var (
	// ReadCampaign parses a campaign from a reader; ReadCampaignFile picks
	// the format from the file extension.
	ReadCampaign     = trace.Read
	ReadCampaignFile = trace.ReadFile
	// CleanCampaign aggregates, converts and imputes a campaign into a
	// validated dense decay Matrix plus the audit report. CleanCampaignCtx
	// is the cancellable form (checked between pipeline stages and inside
	// the imputation row loops).
	CleanCampaign    = trace.Clean
	CleanCampaignCtx = trace.CleanCtx
	// CleanCampaignSharded fans the cleaning pipeline out over per-tx-row
	// shards: bit-identical to CleanCampaign where both run, and it lifts
	// the dense cap from 2²⁶ to 2²⁸ ordered pairs (n ≤ 16384), so
	// campaigns the dense path refuses still ingest.
	CleanCampaignSharded = trace.CleanSharded
	// SynthesizeCampaign generates a campaign from geometric ground truth
	// with shadowing, asymmetry and drops.
	SynthesizeCampaign = trace.Synthesize
	// SpaceCampaign exports any decay space as a synthetic campaign.
	SpaceCampaign = trace.FromSpace
	// WriteCampaignCSV and WriteCampaignJSONL serialize campaigns.
	WriteCampaignCSV   = trace.WriteCSV
	WriteCampaignJSONL = trace.WriteJSONL
)

// Tiered row storage (internal/tier): the memory-wall escape for n ≥ 16k
// sessions. A tiered space keeps the K strongest neighbors per row exact
// over a float32 or fitted path-loss-model far field; Engine sessions opt
// in with WithTieredStorage.
type (
	// TierOptions configures WithTieredStorage: the serializable TierConfig
	// plus the node geometry a model tail needs.
	TierOptions = tier.Options
	// TierConfig is the serializable tiering configuration (near-field
	// width K, tail mode, sampling budget and seed).
	TierConfig = tier.Config
	// TierTailMode selects the far-field representation (TailFloat32 or
	// TailModel).
	TierTailMode = tier.TailMode
	// TierModel is the fitted far-field tail model decay(d) = C·dᵞ.
	TierModel = tier.Model
	// TierAccounting reports bytes held per tier and the tail fit error.
	TierAccounting = tier.Accounting
	// TierErrorReport summarizes a model tail's fit residual in dB.
	TierErrorReport = tier.TailErrorReport
)

// Far-field tail modes of a tiered space.
const (
	// TailFloat32 stores full float32 rows (n²·4 bytes, relative error
	// ≤ 2⁻²⁴ per entry).
	TailFloat32 = tier.TailFloat32
	// TailModel stores a fitted power-law path-loss model over the node
	// geometry (O(1) bytes for the tail).
	TailModel = tier.TailModel
)

// Tiered-space construction and wire codecs.
var (
	// BuildTieredSpace tiers any decay space directly (Engine sessions use
	// WithTieredStorage instead).
	BuildTieredSpace = tier.Build
	// ParseTierConfig and ParseTierModel decode the strict-JSON wire forms
	// (unknown fields, trailing data and out-of-range values rejected;
	// all-or-nothing).
	ParseTierConfig = tier.ParseConfig
	ParseTierModel  = tier.ParseModel
)

// SINR machinery (Sec 2.4).
type (
	// Link is a sender→receiver pair of node indices.
	Link = sinr.Link
	// System binds a space, links and radio parameters.
	System = sinr.System
	// Power is a per-link transmit power vector. The Engine's capacity
	// and scheduling methods also take a vector built before a concurrent
	// AddLinks: it answers for the links it covers, nil link sets select
	// exactly those, and the links added since stay silent.
	Power = sinr.Power
	// Option configures a System.
	Option = sinr.Option
	// AmicableWitness reports Theorem 4's extracted subset.
	AmicableWitness = sinr.AmicableWitness
)

// Environments (the beyond-geometry substrate).
type (
	// Scene is a static propagation environment.
	Scene = environment.Scene
	// Wall is an attenuating, reflecting wall segment.
	Wall = environment.Wall
	// Material is a wall material.
	Material = environment.Material
	// Node is a positioned radio with an antenna.
	EnvNode = environment.Node
	// OfficeConfig parameterizes the office preset.
	OfficeConfig = environment.OfficeConfig
	// WarehouseConfig parameterizes the warehouse preset.
	WarehouseConfig = environment.WarehouseConfig
	// CorridorConfig parameterizes the corridor preset.
	CorridorConfig = environment.CorridorConfig
	// Obstacle is a polygonal blocker in a scene.
	Obstacle = environment.Obstacle
)

// Workloads and distributed algorithms.
type (
	// WorkloadConfig parameterizes plane instance generation.
	WorkloadConfig = workload.Config
	// Instance is a generated plane link instance.
	Instance = workload.Instance
	// Sim is the slotted-round distributed simulator.
	Sim = distributed.Sim
	// GameConfig tunes the distributed capacity game.
	GameConfig = distributed.GameConfig
	// HardnessInstance couples a reduction's space and links.
	HardnessInstance = hardness.Instance
)

// Core measurements.
var (
	// Zeta computes the metricity ζ(D) (Def 2.2).
	Zeta = core.Zeta
	// Varphi computes the variant parameter ϕ (Sec 4.2).
	Varphi = core.Varphi
	// Phi computes φ = lg ϕ.
	Phi = core.Phi
	// ZetaSampledEstimate and VarphiSampledEstimate estimate ζ and ϕ from
	// random triplets drawn in whole-row strata on the worker pool — lower
	// bounds for spaces beyond the exact O(n³) scans (Engine routes to them
	// via WithApproxMetricity) — with a concentration summary (Hoeffding
	// over the scan's per-stratum maxima) alongside the point estimate.
	ZetaSampledEstimate   = core.ZetaSampledEstimate
	VarphiSampledEstimate = core.VarphiSampledEstimate
	// ZetaSampledTarget and VarphiSampledTarget iterate the sampled
	// estimators, doubling the triplet budget until the Hoeffding 95%
	// half-width is at most eps (Engine routes through them under
	// WithTargetPrecision).
	ZetaSampledTarget   = core.ZetaSampledTarget
	VarphiSampledTarget = core.VarphiSampledTarget
	// KnownSymmetric reports whether a space certifies exact symmetry
	// through the SymmetricSpace marker.
	KnownSymmetric = core.KnownSymmetric
	// InduceQuasiMetric computes ζ and wraps the space.
	InduceQuasiMetric = core.InduceQuasiMetric
	// NewQuasiMetric wraps a space with a known exponent.
	NewQuasiMetric = core.NewQuasiMetric
	// AssouadDimension estimates the decay-space dimension (Def 3.2).
	AssouadDimension = core.AssouadDimension
	// FadingParameter estimates γ(r) (Def 3.1).
	FadingParameter = core.FadingParameter
	// Theorem2Bound evaluates the annulus-argument bound of Theorem 2.
	Theorem2Bound = core.Theorem2Bound
	// NewMatrix validates and builds a dense decay space.
	NewMatrix = core.NewMatrix
	// FromFunc materializes a decay space from a function.
	FromFunc = core.FromFunc
	// Rows returns a RowSpace view of any space (dense spaces directly,
	// everything else via one-time materialization).
	Rows = core.Rows
	// Materialize copies an arbitrary space into a dense Matrix in
	// parallel.
	Materialize = core.Materialize
	// IsSymmetric reports whether decays are symmetric within tolerance.
	IsSymmetric = core.IsSymmetric
	// NewGeometricSpace builds f = d^α over plane points.
	NewGeometricSpace = core.NewGeometricSpace
	// ReadJSON and WriteJSON serialize dense decay matrices.
	ReadJSON  = core.ReadJSON
	WriteJSON = core.WriteJSON
)

// System construction and power assignments.
var (
	// NewSystem validates and builds a System.
	NewSystem = sinr.NewSystem
	// WithNoise, WithBeta and WithZeta configure a System.
	WithNoise = sinr.WithNoise
	WithBeta  = sinr.WithBeta
	WithZeta  = sinr.WithZeta
	// UniformPower, LinearPower and MeanPower are the standard monotone
	// assignments.
	UniformPower = sinr.UniformPower
	LinearPower  = sinr.LinearPower
	MeanPower    = sinr.MeanPower
	// IsFeasible checks simultaneous SINR feasibility.
	IsFeasible = sinr.IsFeasible
	// ComputeAffectances builds the dense pairwise affectance matrix in
	// parallel through the batch row contract (Engine.Affectances caches
	// it per power vector).
	ComputeAffectances = sinr.ComputeAffectances
	// SignalStrengthen partitions into q-feasible classes (Lemma B.1).
	SignalStrengthen = sinr.SignalStrengthen
	// ExtractAmicable runs Theorem 4's constructive argument.
	ExtractAmicable = sinr.ExtractAmicable
	// InductiveIndependence measures the [45, 38] parameter on a set.
	InductiveIndependence = sinr.InductiveIndependence
)

// Capacity and scheduling.
var (
	// Algorithm1 is the paper's Algorithm 1 (Theorem 5).
	Algorithm1 = capacity.Algorithm1
	// GreedyCapacity is the general-metric baseline.
	GreedyCapacity = capacity.GreedyGeneral
	// ExactCapacity is the exact optimum for small instances.
	ExactCapacity = capacity.Exact
	// AllLinks lists every link index of a system.
	AllLinks = capacity.AllLinks
	// BestOblivious picks the best monotone oblivious power scheme.
	BestOblivious = capacity.BestOblivious
	// ScheduleByCapacity and ScheduleFirstFit build slot schedules.
	ScheduleByCapacity = schedule.ByCapacity
	ScheduleFirstFit   = schedule.FirstFit
	// ValidateSchedule checks a schedule's feasibility and coverage.
	ValidateSchedule = schedule.Validate
)

// Environments, workloads, distributed algorithms, constructions.
var (
	// Office builds the office-floor scene preset.
	Office = environment.Office
	// Warehouse builds the rack-obstacle scene preset.
	Warehouse = environment.Warehouse
	// Corridor builds the hallway scene preset.
	Corridor = environment.Corridor
	// OfficeExtent returns the office floor dimensions.
	OfficeExtent = environment.OfficeExtent
	// RandomNodes places isotropic nodes uniformly.
	RandomNodes = environment.RandomNodes
	// MeasurementNoise perturbs a measured decay matrix.
	MeasurementNoise = environment.MeasurementNoise
	// PlaneWorkload generates random plane link instances.
	PlaneWorkload = workload.Plane
	// GeometricSystem binds an instance to geometric decay.
	GeometricSystem = workload.GeometricSystem
	// NewSim builds the slotted distributed simulator.
	NewSim = distributed.NewSim
	// CapacityGame runs the distributed adaptive capacity protocol.
	CapacityGame = distributed.CapacityGame
	// Theorem3Instance and Theorem6Instance build the hardness reductions.
	Theorem3Instance = hardness.Theorem3
	Theorem6Instance = hardness.Theorem6
	// StarSpace and WelzlSpace build the Sec 3.4/4.1 example spaces.
	StarSpace  = hardness.Star
	WelzlSpace = hardness.Welzl
	// GapFamily builds the ζ-vs-φ gap instance.
	GapFamily = hardness.GapFamily
	// IndependenceDimension measures Def 4.1's parameter.
	IndependenceDimension = hardness.IndependenceDimension
)

// Materials re-exported for scene building.
var (
	Drywall  = environment.Drywall
	Brick    = environment.Brick
	Concrete = environment.Concrete
	Glass    = environment.Glass
	Metal    = environment.Metal
)

// DistParams are the radio parameters of the distributed simulator.
type DistParams = distributed.Params
