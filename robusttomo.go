// Package robusttomo is a Go implementation of robust network tomography
// in the presence of failures (Tati, Silvestri, He, La Porta — IEEE ICDCS
// 2014): path selection that maximizes the expected rank of the surviving
// measurement system under probabilistic link failures, subject to a
// probing-cost budget, plus a reinforcement-learning variant for unknown
// failure distributions.
//
// The package is a facade: it re-exports the supported surface of the
// internal packages so downstream users program against one import path.
//
//	net := robusttomo.NewGraph(8, 8)                   // build a network
//	paths, _ := robusttomo.MonitorPairs(net, ms, ms)   // candidate paths
//	pm, _ := robusttomo.NewPathMatrix(paths, net.NumEdges())
//	model, _ := robusttomo.NewFailureModel(...)        // link failures
//	sel, _ := robusttomo.SelectRobustPaths(pm, model, costs, budget)
//
// See the examples/ directory for complete programs and DESIGN.md for the
// paper-to-package map.
package robusttomo

import (
	"context"
	"fmt"
	"math/rand/v2"

	"robusttomo/internal/agent"
	"robusttomo/internal/bandit"
	"robusttomo/internal/cluster"
	"robusttomo/internal/cost"
	"robusttomo/internal/diagnose"
	"robusttomo/internal/engine"
	"robusttomo/internal/er"
	"robusttomo/internal/failure"
	"robusttomo/internal/graph"
	"robusttomo/internal/loss"
	"robusttomo/internal/obs"
	"robusttomo/internal/placement"
	"robusttomo/internal/routing"
	"robusttomo/internal/selection"
	"robusttomo/internal/service"
	"robusttomo/internal/sim"
	"robusttomo/internal/stats"
	"robusttomo/internal/tomo"
	"robusttomo/internal/topo"
)

// Network modeling.
type (
	// Graph is an undirected weighted multigraph with dense node/edge IDs.
	Graph = graph.Graph
	// NodeID identifies a node.
	NodeID = graph.NodeID
	// EdgeID identifies a link.
	EdgeID = graph.EdgeID
	// Edge is an undirected weighted link.
	Edge = graph.Edge
	// Topology is a generated ISP-like network with monitor-candidate
	// annotations.
	Topology = topo.Topology
	// TopologyConfig parameterizes the ISP topology generator.
	TopologyConfig = topo.Config
	// WaxmanConfig parameterizes the Waxman random-topology generator.
	WaxmanConfig = topo.WaxmanConfig
	// Path is a routed monitor-to-monitor path.
	Path = routing.Path
)

// Tomography core.
type (
	// PathMatrix is the 0/1 candidate-path × link incidence matrix A.
	PathMatrix = tomo.PathMatrix
	// System is a surviving-measurement linear system A_S·x = y_S.
	System = tomo.System
	// Reconstructor derives unprobed end-to-end measurements from a probed
	// basis.
	Reconstructor = tomo.Reconstructor
	// Aggregator averages noisy per-path measurements across epochs.
	Aggregator = tomo.Aggregator
)

// Failure and cost models.
type (
	// FailureModel holds per-link failure probabilities.
	FailureModel = failure.Model
	// FailureConfig parameterizes the Markopoulou-style power-law model.
	FailureConfig = failure.Config
	// Scenario is one epoch's link-failure vector.
	Scenario = failure.Scenario
	// CostModel assigns probing costs to paths.
	CostModel = cost.Model
	// CostConfig parameterizes the probing cost model.
	CostConfig = cost.Config
	// FailureSampler is the minimal scenario-drawing interface; both
	// FailureModel and CorrelatedFailureModel implement it.
	FailureSampler = failure.Sampler
	// CorrelatedFailureModel layers shared-risk link groups over the
	// independent model (an extension beyond the paper).
	CorrelatedFailureModel = failure.CorrelatedModel
	// SRLG is a shared-risk link group.
	SRLG = failure.SRLG
	// ScenarioSource is the pluggable failure-process contract: a
	// FailureSampler that also names itself, exports its stationary
	// marginals, and snapshots/restores cross-epoch state.
	ScenarioSource = failure.ScenarioSource
	// ScenarioSourceState is a ScenarioSource's opaque snapshot.
	ScenarioSourceState = failure.SourceState
	// ScenarioSourceSpec names and parameterizes a registered source
	// (the JSON payload `tomo serve` monterome jobs accept).
	ScenarioSourceSpec = failure.SourceSpec
	// GilbertElliott is the bursty per-link two-state Markov source.
	GilbertElliott = failure.GilbertElliott
	// GilbertElliottConfig parameterizes NewGilbertElliott.
	GilbertElliottConfig = failure.GEConfig
	// NodeFailureModel downs every link incident to a failed node.
	NodeFailureModel = failure.NodeFailureModel
	// NodeFailureConfig parameterizes NewNodeFailureModel.
	NodeFailureConfig = failure.NodeFailureConfig
	// NodeIdent reports which nodes a probe set covers and can uniquely
	// localize (tomo.PathMatrix.NodeIdentifiability).
	NodeIdent = tomo.NodeIdent
)

// Selection and learning.
type (
	// SelectionResult is the outcome of a path-selection algorithm.
	SelectionResult = selection.Result
	// SelectionOptions tunes the RoMe greedy.
	SelectionOptions = selection.Options
	// EROracle is an incremental expected-rank oracle consumed by RoMe.
	EROracle = er.Incremental
	// Learner is the LSR/LLR reinforcement-learning path selector.
	Learner = bandit.LSR
	// EpsilonGreedyLearner is the undirected-exploration baseline learner.
	EpsilonGreedyLearner = bandit.EpsilonGreedy
	// WindowedObserver adapts a Learner to non-stationary failure
	// processes via a sliding observation window.
	WindowedObserver = bandit.WindowedObserver
	// LearnerOptions configures the learner.
	LearnerOptions = bandit.Options
	// LearnerEnv supplies epoch ground truth to the learner.
	LearnerEnv = bandit.Env
)

// Graph and topology construction.
var (
	// NewGraph returns an empty graph with capacity hints.
	NewGraph = graph.New
	// GenerateTopology builds an ISP-like topology from a config.
	GenerateTopology = topo.Generate
	// PresetTopology builds one of the paper's Table I topologies
	// ("AS1755", "AS3257", "AS1239").
	PresetTopology = topo.Preset
	// NewExampleNetwork builds the paper's Section II example network.
	NewExampleNetwork = topo.NewExample
	// LoadRocketfuelWeights parses a Rocketfuel-style inferred-weights
	// file into a topology, for users with the real ISP maps.
	LoadRocketfuelWeights = topo.LoadWeights
	// GenerateWaxman builds a Waxman (1988) random topology, the classic
	// alternative to hierarchical ISP models.
	GenerateWaxman = topo.GenerateWaxman
	// Dijkstra computes a shortest-path tree.
	Dijkstra = routing.Dijkstra
	// MonitorPairs enumerates the candidate paths between monitors.
	MonitorPairs = routing.MonitorPairs
	// MonitorPairsK enumerates up to k routes per monitor pair (Yen's
	// k-shortest paths), the multipath candidate extension.
	MonitorPairsK = routing.MonitorPairsK
	// KShortestPaths returns up to k loopless shortest paths for one pair.
	KShortestPaths = routing.KShortestPaths
)

// Tomography construction.
var (
	// NewPathMatrix assembles A from candidate paths.
	NewPathMatrix = tomo.NewPathMatrix
	// NewSystem builds the surviving linear system (pass nil measurements
	// for identifiability-only analysis).
	NewSystem = tomo.NewSystem
	// NewSystemTol is NewSystem with a noise-reconciliation tolerance.
	NewSystemTol = tomo.NewSystemTol
	// NewReconstructor ingests probed measurements for e2e reconstruction.
	NewReconstructor = tomo.NewReconstructor
	// NewAggregator builds a multi-epoch measurement averager.
	NewAggregator = tomo.NewAggregator
	// DeliveryRatesToMetrics converts multiplicative delivery rates into
	// the additive −ln metrics the linear system consumes.
	DeliveryRatesToMetrics = tomo.DeliveryRatesToMetrics
	// MetricsToDeliveryRates inverts DeliveryRatesToMetrics.
	MetricsToDeliveryRates = tomo.MetricsToDeliveryRates
)

// Failure and cost construction.
var (
	// NewFailureModel builds the power-law link-failure model.
	NewFailureModel = failure.NewModel
	// FailureFromProbabilities builds a model from explicit probabilities.
	FailureFromProbabilities = failure.FromProbabilities
	// FailureFromDurations builds a model from per-link MTBF/MTTR.
	FailureFromDurations = failure.FromDurations
	// NewCostModel builds the hop+access probing cost model.
	NewCostModel = cost.NewModel
	// UnitCost returns the unit-cost model of the matroid setting.
	UnitCost = cost.Unit
	// NewCorrelatedFailureModel layers SRLGs over an independent model.
	NewCorrelatedFailureModel = failure.NewCorrelatedModel
	// SampleScenarios draws scenarios from any failure sampler.
	SampleScenarios = failure.SampleScenarios
	// NewGilbertElliott builds the bursty two-state Markov source.
	NewGilbertElliott = failure.NewGilbertElliott
	// NewNodeFailureModel builds the node-event source.
	NewNodeFailureModel = failure.NewNodeFailureModel
	// NewScenarioSource builds any registered source from its spec.
	NewScenarioSource = failure.NewSource
	// RegisterScenarioSource registers a custom source factory by name.
	RegisterScenarioSource = failure.RegisterSource
	// ScenarioSourceNames lists the registered source names.
	ScenarioSourceNames = failure.SourceNames
)

// Expected-rank oracles.
var (
	// NewProbBoundOracle is the paper's efficient Eq. 7 bound (ProbRoMe).
	NewProbBoundOracle = er.NewProbBoundInc
	// NewMonteCarloOracle estimates ER over sampled scenarios (MonteRoMe).
	NewMonteCarloOracle = er.NewMonteCarloInc
	// NewThetaBoundOracle is the Eq. 11 independence-assumption bound used
	// by the learner.
	NewThetaBoundOracle = er.NewThetaBoundInc
	// ExactER enumerates failure scenarios exactly (small instances).
	ExactER = er.Exact
	// MonteCarloER estimates ER for a fixed selection.
	MonteCarloER = er.MonteCarlo
	// ExpectedAvailability returns EA(q) = Π (1 − p_l).
	ExpectedAvailability = er.ExpectedAvailability
)

// Selection algorithms.
var (
	// RoMe is the budgeted greedy with the 1−1/√e guarantee (Algorithm 1).
	RoMe = selection.RoMe
	// MatRoMe is the optimal matroid-constrained variant (Section IV-B).
	MatRoMe = selection.MatRoMe
	// SelectPath extracts the arbitrary-basis baseline.
	SelectPath = selection.SelectPath
	// SelectPathBudgeted fits the baseline to a budget (Section VI-B).
	SelectPathBudgeted = selection.SelectPathBudgeted
	// DefaultSelectionOptions returns the default RoMe options.
	DefaultSelectionOptions = selection.NewOptions
	// NewLearner builds the LSR/LLR learner (Section V).
	NewLearner = bandit.New
	// NewEpsilonGreedyLearner builds the ε-greedy baseline learner.
	NewEpsilonGreedyLearner = bandit.NewEpsilonGreedy
	// NewWindowedObserver wraps a Learner with a sliding window.
	NewWindowedObserver = bandit.NewWindowedObserver
	// NewFailureEnv drives a learner with the true failure process.
	NewFailureEnv = bandit.NewFailureEnv
	// NewRNG returns the deterministic generator used across the library.
	NewRNG = stats.NewRNG
)

// Measurement collection over TCP (monitor agents + NOC).
type (
	// Monitor is a TCP vantage-point agent answering probe requests.
	Monitor = agent.Monitor
	// Measurement is one collected end-to-end measurement.
	Measurement = agent.Measurement
	// LinkOracle answers simulated network state per epoch.
	LinkOracle = agent.LinkOracle
	// EpochOracle is a LinkOracle over ground-truth metrics and a failure
	// schedule.
	EpochOracle = agent.EpochOracle
	// RetryPolicy bounds per-monitor collection attempts per epoch.
	RetryPolicy = agent.RetryPolicy
	// BreakerPolicy configures the per-monitor circuit breaker.
	BreakerPolicy = agent.BreakerPolicy
	// CollectorTimeouts groups the NOC's dial and per-frame write
	// deadlines.
	CollectorTimeouts = agent.Timeouts
	// BreakerState is one monitor's circuit-breaker state.
	BreakerState = agent.BreakerState
	// CollectionError reports a partially failed epoch (per-monitor
	// outcomes alongside the measurements that did arrive).
	CollectionError = agent.CollectionError
	// MonitorOutcome is one monitor's collection outcome for one epoch.
	MonitorOutcome = agent.MonitorOutcome
	// DialFunc customizes how the NOC reaches monitors.
	DialFunc = agent.DialFunc
	// FaultyDialer scripts NOC-side dial faults for tests.
	FaultyDialer = agent.FaultyDialer
	// DialFault scripts one faulty dial attempt.
	DialFault = agent.DialFault
	// FaultyListener scripts monitor-side connection faults for tests.
	FaultyListener = agent.FaultyListener
	// ConnFault scripts one faulty accepted connection.
	ConnFault = agent.ConnFault
)

// Circuit-breaker states.
const (
	BreakerClosed   = agent.BreakerClosed
	BreakerOpen     = agent.BreakerOpen
	BreakerHalfOpen = agent.BreakerHalfOpen
)

// Collection sentinel errors; match with errors.Is through a
// *CollectionError.
var (
	// ErrMonitorUnreachable marks a monitor that delivered nothing after
	// the retry budget (dial failures, resets, protocol garbage).
	ErrMonitorUnreachable = agent.ErrMonitorUnreachable
	// ErrUnknownMonitor marks a path whose source has no registered
	// monitor.
	ErrUnknownMonitor = agent.ErrUnknownMonitor
	// ErrPathOutOfRange marks a selected path index outside the matrix.
	ErrPathOutOfRange = agent.ErrPathOutOfRange
	// ErrCircuitOpen marks a monitor skipped while its breaker cools down.
	ErrCircuitOpen = agent.ErrCircuitOpen
)

// Measurement-collection construction.
var (
	// StartMonitor launches a monitor agent on a TCP address.
	StartMonitor = agent.StartMonitor
	// StartMonitorOn launches a monitor over an existing listener (the
	// fault-injection hook).
	StartMonitorOn = agent.StartMonitorOn
	// DefaultRetryPolicy returns the collection retry defaults.
	DefaultRetryPolicy = agent.DefaultRetryPolicy
	// DefaultBreakerPolicy returns the circuit-breaker defaults.
	DefaultBreakerPolicy = agent.DefaultBreakerPolicy
	// DefaultCollectorTimeouts returns the collection deadline defaults.
	DefaultCollectorTimeouts = agent.DefaultTimeouts
	// NewEpochOracle builds the simulated per-epoch network state.
	NewEpochOracle = agent.NewEpochOracle
	// NewFaultyDialer scripts faults over a dialer (tests).
	NewFaultyDialer = agent.NewFaultyDialer
	// NewFaultyListener scripts faults over a listener (tests).
	NewFaultyListener = agent.NewFaultyListener
)

// The NOC: batched multi-path probe frames over persistent sharded
// sessions, with watermark-based epoch assembly.
type (
	// StreamNOC is the fault-tolerant measurement collector: monitor
	// sessions sharded over persistent connections, multi-path probe
	// frames, and epochs sealed at a watermark with late results folded
	// into the next epoch.
	StreamNOC = agent.StreamNOC
	// StreamConfig wires a StreamNOC to its monitors and path matrix:
	// sharding, batching, watermark, backpressure and frame-encoding knobs
	// plus the retry, breaker and timeout blocks.
	StreamConfig = agent.StreamConfig
	// AssembledEpoch is one sealed epoch: its measurements, the paths
	// still missing at the watermark, and late results from earlier
	// epochs.
	AssembledEpoch = agent.AssembledEpoch
	// LateMeasurement is a measurement that arrived after its epoch
	// sealed, tagged with the epoch it belongs to.
	LateMeasurement = agent.LateMeasurement
	// FrameEncoding selects the batch frame codec (binary or JSON lines).
	FrameEncoding = agent.Encoding
	// ProbeBatch is one multi-path probe request frame.
	ProbeBatch = agent.ProbeBatch
	// ResultBatch is one multi-path result frame.
	ResultBatch = agent.ResultBatch
	// BatchPath is one path entry inside a ProbeBatch.
	BatchPath = agent.BatchPath
	// BatchResult is one path's result inside a ResultBatch.
	BatchResult = agent.BatchResult
)

// Batch frame encodings.
const (
	// FrameBinary is the length-prefixed binary frame codec (default).
	FrameBinary = agent.EncodingBinary
	// FrameJSON writes each batch as one JSON line — slower, but readable
	// in a packet capture or wire log.
	FrameJSON = agent.EncodingJSON
)

// NOC sentinels and construction.
var (
	// ErrWatermark marks paths that missed the epoch watermark; their
	// results, if they arrive, fold into a later epoch as LateMeasurements.
	ErrWatermark = agent.ErrWatermark
	// ErrBackpressure marks batches shed because a shard queue was full.
	ErrBackpressure = agent.ErrBackpressure
	// NewStreamNOC builds the measurement collector.
	NewStreamNOC = agent.NewStreamNOC
	// ParseFrameEncoding parses "binary" or "json".
	ParseFrameEncoding = agent.ParseEncoding
	// EncodeProbeBatch appends one encoded probe frame to dst.
	EncodeProbeBatch = agent.EncodeProbeBatch
	// EncodeResultBatch appends one encoded result frame to dst.
	EncodeResultBatch = agent.EncodeResultBatch
)

// Observability: the dependency-free metrics/tracing registry. Install an
// Observer on StreamConfig, SimConfig, SelectionOptions or LearnerOptions and
// every layer reports into it; a nil Observer costs one nil check per
// instrumented operation.
type (
	// Observer is the concurrent-safe metric registry (counters, gauges,
	// fixed-bucket histograms, labeled families) with Prometheus text
	// exposition, expvar publishing and a ring-buffered event/span tracer.
	Observer = obs.Registry
	// ObserverConfig tunes a new Observer (injectable clock, event-ring
	// capacity).
	ObserverConfig = obs.Config
	// MetricCounter is a monotonically increasing counter handle.
	MetricCounter = obs.Counter
	// MetricGauge is a set/add float gauge handle.
	MetricGauge = obs.Gauge
	// MetricHistogram is a fixed-bucket histogram handle.
	MetricHistogram = obs.Histogram
	// TraceSpan is an in-flight timed operation recorded into the
	// Observer's event ring on End.
	TraceSpan = obs.Span
	// TraceEvent is one recorded point-in-time or span-end event.
	TraceEvent = obs.Event
)

// Observability construction.
var (
	// NewObserver returns a metric registry with the default configuration.
	NewObserver = obs.New
	// NewObserverWith returns a metric registry with an injectable clock
	// and event-ring capacity.
	NewObserverWith = obs.NewWith
	// DefaultMetricBuckets is the default latency histogram layout
	// (seconds).
	DefaultMetricBuckets = obs.DefBuckets
	// ExponentialMetricBuckets builds a geometric histogram layout.
	ExponentialMetricBuckets = obs.ExponentialBuckets
)

// Engine registry: the typed dispatch surface behind the job service.
// An Engine normalizes a JobSpec into a content-addressed EngineJob;
// the service queues, dedups, caches and labels entirely through the
// interface. Register new inference methods from their own package —
// the service needs no edits.
type (
	// Engine is a registered inference method: it normalizes a submitted
	// spec into a runnable, content-addressed job.
	Engine = engine.Engine
	// EngineSpec is the raw submission an Engine normalizes.
	EngineSpec = engine.Spec
	// EngineJob is one normalized job: canonical key, cost hint, run.
	EngineJob = engine.Job
	// EngineResult is an engine's result payload (cache-sizable,
	// clonable). Concrete types: SelectionResult, LossResult.
	EngineResult = engine.Result
	// UnknownEngineError reports a job routed to an unregistered engine;
	// its message lists the registered names. Match with errors.As.
	UnknownEngineError = engine.UnknownEngineError
)

// Engine registry entry points.
var (
	// RegisterEngine adds an engine to the process-wide registry
	// (typically from an init function); it panics on a duplicate name.
	RegisterEngine = engine.Register
	// LookupEngine resolves a registered engine by name.
	LookupEngine = engine.Lookup
	// Engines lists the registered engine names, sorted.
	Engines = engine.Engines
)

// Multicast loss tomography (the "loss" engine): the MINC
// maximum-likelihood estimator of per-link loss rates from end-to-end
// multicast receiver observations, over arbitrary logical trees.
type (
	// LossTree is a rooted logical multicast tree (parent-array form).
	LossTree = loss.Tree
	// LossEstimator accumulates multicast probe outcomes incrementally
	// and solves the MINC MLE from its counts at any point.
	LossEstimator = loss.Estimator
	// LossResult is a loss-tomography estimate: per-node γ, cumulative
	// pass rates A, per-link pass rates α and loss rates 1−α.
	LossResult = loss.Result
	// LossParams is the loss engine's JobSpec params payload (the tree
	// and the per-probe receiver outcomes).
	LossParams = loss.Params
	// LossUnidentifiableError reports a node whose MLE equation
	// degenerates (the γ-sum cancellation guard); match with errors.As.
	LossUnidentifiableError = loss.UnidentifiableError
)

// Loss-tomography construction.
var (
	// NewLossTree builds a multicast tree from a parent array (-1 root).
	NewLossTree = loss.NewTree
	// NewBinaryLossTree builds the complete binary tree of a given depth.
	NewBinaryLossTree = loss.BinaryTree
	// NewLossEstimator returns an estimator with zero probes observed.
	NewLossEstimator = loss.NewEstimator
	// BinaryClosedFormA is the two-child closed form of the MLE equation,
	// A = γ_L·γ_R/(γ_L+γ_R−γ).
	BinaryClosedFormA = loss.BinaryClosedFormA
)

// Inference-job service: the asynchronous multi-tenant job subsystem
// behind `tomo serve` (POST /api/v1/jobs), dispatching to registered
// engines. Embed it directly to get the worker pool, content-addressed
// result cache, singleflight dedup and load shedding without the HTTP
// layer. (The Selection* names predate the engine registry — the
// service itself is engine-agnostic.)
type (
	// SelectionService runs client-submitted selection jobs on a bounded
	// worker pool with a content-addressed result cache.
	SelectionService = service.Service
	// SelectionServiceConfig parameterizes a SelectionService.
	SelectionServiceConfig = service.Config
	// SelectionJobSpec is one submitted selection instance (also the
	// POST /api/v1/jobs wire format).
	SelectionJobSpec = service.JobSpec
	// SelectionJobState is a job's lifecycle state.
	SelectionJobState = service.JobState
	// SelectionJobStatus is a point-in-time job snapshot.
	SelectionJobStatus = service.JobStatus
	// SelectionSubmitOutcome reports how a submission was satisfied
	// (queued, deduped onto an in-flight job, or answered from cache).
	SelectionSubmitOutcome = service.SubmitOutcome
	// SelectionServiceStats is a snapshot of the service counters.
	SelectionServiceStats = service.Stats
	// ServiceOverloadError reports a shed submission with its Retry-After
	// hint; match with errors.As or errors.Is(err, ErrServiceOverloaded).
	ServiceOverloadError = service.OverloadError
	// CanonicalSelectionInputs is the canonical, hashable form of a
	// selection instance; its Key is the content-addressed job/cache ID.
	CanonicalSelectionInputs = selection.CanonicalInputs
)

// Selection-service job lifecycle states.
const (
	JobQueued   = service.StateQueued
	JobRunning  = service.StateRunning
	JobDone     = service.StateDone
	JobFailed   = service.StateFailed
	JobCanceled = service.StateCanceled
)

// Selection-service sentinel errors; match with errors.Is.
var (
	// ErrServiceClosed marks submissions after shutdown began.
	ErrServiceClosed = service.ErrClosed
	// ErrServiceUnknownJob marks lookups of unretained job IDs.
	ErrServiceUnknownJob = service.ErrUnknownJob
	// ErrServiceJobNotDone marks result fetches before completion.
	ErrServiceJobNotDone = service.ErrNotDone
	// ErrServiceOverloaded marks shed submissions (*ServiceOverloadError).
	ErrServiceOverloaded = service.ErrOverloaded
)

// Selection-service construction.
var (
	// NewSelectionService starts the worker pool and returns the service.
	NewSelectionService = service.New
	// CanonicalSelectionKey hashes a path matrix plus failure/cost/budget
	// inputs into the content-addressed cache key.
	CanonicalSelectionKey = selection.CanonicalKey
)

// Cluster plane: consistent-hash sharding of the job service across
// daemons, with peer cache-fill and hedged forwards (DESIGN.md §16).
type (
	// ClusterNode routes submissions across the ring: owned keys run
	// locally, others forward to the owner with a hedge to its successor.
	ClusterNode = cluster.Node
	// ClusterConfig parameterizes a ClusterNode (self identity, peers,
	// ring replicas, hedge delay, transport).
	ClusterConfig = cluster.Config
	// ClusterRing is the consistent-hash ring: deterministic placement
	// from canonical job keys over the member set.
	ClusterRing = cluster.Ring
	// ClusterTransport carries peer frames; the TCP implementation is
	// NewClusterTCPTransport, tests use cluster.LoopbackTransport.
	ClusterTransport = cluster.Transport
	// ClusterNodeStats is one node's cluster-plane ledger.
	ClusterNodeStats = cluster.NodeStats
	// ClusterSnapshot is the fleet-wide stats document (totals + one
	// NodeStats per reachable member).
	ClusterSnapshot = cluster.ClusterSnapshot
	// ClusterConfigError reports invalid cluster configuration (empty,
	// duplicate or self-addressed peers); it fails construction
	// synchronously.
	ClusterConfigError = cluster.ClusterConfigError
)

// Cluster construction and sentinels.
var (
	// NewClusterNode validates the configuration and joins the ring.
	NewClusterNode = cluster.New
	// NewClusterRing builds the consistent-hash ring directly.
	NewClusterRing = cluster.NewRing
	// NewClusterTCPTransport returns the deployment peer transport.
	NewClusterTCPTransport = cluster.NewTCPTransport
	// ServeClusterPeers accepts peer-protocol connections for a node.
	ServeClusterPeers = cluster.ServePeers
	// ValidateClusterPeers rejects duplicate, empty and self-addressed
	// peer lists with a typed *ClusterConfigError.
	ValidateClusterPeers = cluster.ValidatePeers
	// ErrClusterNodeClosed marks submissions after the node shut down.
	ErrClusterNodeClosed = cluster.ErrNodeClosed
	// ErrClusterPeerUnreachable marks transport-level peer failures.
	ErrClusterPeerUnreachable = cluster.ErrPeerUnreachable
)

// Failure localization, monitor placement and the closed-loop runner.
type (
	// Observation is one epoch of binary path outcomes for localization.
	Observation = diagnose.Observation
	// Diagnosis is the Boolean failure-localization result.
	Diagnosis = diagnose.Diagnosis
	// PlacementConfig parameterizes greedy monitor placement.
	PlacementConfig = placement.Config
	// PlacementResult is a monitor placement outcome.
	PlacementResult = placement.Result
	// SimConfig parameterizes the closed-loop tomography runner.
	SimConfig = sim.Config
	// CollectionHealth is per-epoch measurement-plane health in an
	// EpochReport.
	CollectionHealth = sim.CollectionHealth
	// SimRunner drives collection, aggregation, learning and localization
	// epoch by epoch.
	SimRunner = sim.Runner
	// EpochReport summarizes one closed-loop epoch.
	EpochReport = sim.EpochReport
	// SimMode selects static (known distribution) or learning mode.
	SimMode = sim.Mode
	// SimCollector is the measurement-plane interface the runner drives:
	// collectors return AssembledEpochs (late results, watermark misses)
	// for the runner to fold forward.
	SimCollector = sim.Collector
)

// Closed-loop modes.
const (
	SimStatic   = sim.Static
	SimLearning = sim.Learning
)

// Localization, placement and simulation entry points.
var (
	// Localize applies Boolean failure localization to one epoch.
	Localize = diagnose.Localize
	// MinimalExplanations enumerates minimum failure sets (small cases).
	MinimalExplanations = diagnose.MinimalExplanations
	// GreedyExplanation returns one covering failure set at any scale.
	GreedyExplanation = diagnose.GreedyExplanation
	// PlaceMonitors greedily places monitors to maximize (expected) rank.
	PlaceMonitors = placement.Greedy
	// NewSimRunner builds the closed-loop runner.
	NewSimRunner = sim.New
)

// SelectRobustPathsCtx is the context-first one-call happy path: run
// ProbRoMe (RoMe with the efficient ER bound) over the candidates and
// return the selection. The context is checked between greedy iterations,
// so cancelling it interrupts a long selection promptly.
func SelectRobustPathsCtx(ctx context.Context, pm *PathMatrix, model *FailureModel, costs []float64, budget float64) (SelectionResult, error) {
	opts := selection.NewOptions()
	opts.Ctx = ctx
	return selection.RoMe(pm, costs, budget, er.NewProbBoundInc(pm, model), opts)
}

// SelectRobustPathsMCCtx is SelectRobustPathsCtx with the Monte Carlo
// oracle (MonteRoMe) over the given number of sampled scenarios —
// MonteRoMe is the expensive variant, so cancellation matters most here.
// A non-positive scenario count is an error.
func SelectRobustPathsMCCtx(ctx context.Context, pm *PathMatrix, model *FailureModel, costs []float64, budget float64, runs int, rng *rand.Rand) (SelectionResult, error) {
	if runs <= 0 {
		return SelectionResult{}, fmt.Errorf("robusttomo: need a positive scenario count, got %d", runs)
	}
	opts := selection.NewOptions()
	opts.Ctx = ctx
	oracle := er.NewMonteCarloInc(pm, model, runs, rng)
	defer oracle.Release()
	return selection.RoMe(pm, costs, budget, oracle, opts)
}

// SelectRobustPaths is the non-context one-call happy path: run ProbRoMe
// (RoMe with the efficient ER bound) over the candidates and return the
// selection. It is a thin wrapper over SelectRobustPathsCtx with
// context.Background().
func SelectRobustPaths(pm *PathMatrix, model *FailureModel, costs []float64, budget float64) (SelectionResult, error) {
	return SelectRobustPathsCtx(context.Background(), pm, model, costs, budget)
}

// SelectRobustPathsMC is SelectRobustPaths with the Monte Carlo oracle
// (MonteRoMe) over the given number of sampled scenarios; a thin wrapper
// over SelectRobustPathsMCCtx with context.Background().
func SelectRobustPathsMC(pm *PathMatrix, model *FailureModel, costs []float64, budget float64, runs int, rng *rand.Rand) (SelectionResult, error) {
	return SelectRobustPathsMCCtx(context.Background(), pm, model, costs, budget, runs, rng)
}
