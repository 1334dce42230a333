// Package world composes the substrates — geography, BGP routing,
// workload generation, and the flow-level transfer model — into a
// synthetic Internet that stands in for Facebook's production traffic
// (the paper's proprietary dataset, §2.2.4).
//
// The world is organised the way the analysis consumes it: user groups
// (PoP × BGP prefix × country, §3.3), each with a route set at its
// serving PoP, per-continent latency and access-bandwidth profiles
// calibrated to the paper's Figure 6, diurnal congestion and episodic
// failures for §5, and per-route deltas that reproduce the limited
// opportunity structure of §6.
//
// One per-group generator, groupFeed, simulates a group window by
// window from the group's own RNG lineage and records each window: its
// trace events and the world's metrics. Two drivers run it.
// GenerateBatchesOf runs groups on a worker pool, each day by day, and
// delivers the days, each group's in day order and groups as they
// finish, for the study (GenerateBatches, every group) and the dataset
// writer (its work list); LiveFeed runs the groups window by window, up
// to a day ahead of the always-on daemon, and delivers them one window
// at a time. Their samples, traces and counters agree by construction.
package world

import (
	"fmt"
	"time"

	"repro/internal/bgp"
	"repro/internal/cartographer"
	"repro/internal/geo"
	"repro/internal/units"
)

// ContinentProfile calibrates a continent's client population.
type ContinentProfile struct {
	// TrafficShare is the continent's share of global traffic.
	TrafficShare float64
	// RTTMedian and RTTSigma parameterise the log-normal MinRTT of
	// locally served groups.
	RTTMedian time.Duration
	RTTSigma  float64
	// RemoteShare is the fraction of the continent's groups served from
	// another continent's PoPs (§2.1: European PoPs serve parts of Asia
	// and Africa); RemoteRTTMedian applies to those.
	RemoteShare     float64
	RemoteRTTMedian time.Duration
	// AccessMedian and AccessSigma parameterise the log-normal
	// last-mile bandwidth.
	AccessMedian units.Rate
	AccessSigma  float64
	// BaseLoss is the per-packet loss floor on clean paths.
	BaseLoss float64
	// DegradationBoost scales how often groups on this continent see
	// diurnal/episodic degradation (Table 1: AF/AS/SA above average).
	DegradationBoost float64
}

// Profiles is the per-continent calibration, tuned against Figure 6:
// global median MinRTT just under 40 ms, continental medians AF 58 ms,
// AS 51 ms, SA 40 ms, EU/NA/OC ≤ 25-28 ms; HDratio-zero shares AF 36%,
// AS 24%, SA 27%.
var Profiles = map[geo.Continent]ContinentProfile{
	geo.Asia: {
		TrafficShare: 0.35, RTTMedian: 46 * time.Millisecond, RTTSigma: 0.60,
		RemoteShare: 0.12, RemoteRTTMedian: 100 * time.Millisecond,
		AccessMedian: 8 * units.Mbps, AccessSigma: 1.1, BaseLoss: 0.003,
		DegradationBoost: 1.6,
	},
	geo.Europe: {
		TrafficShare: 0.21, RTTMedian: 24 * time.Millisecond, RTTSigma: 0.80,
		AccessMedian: 14 * units.Mbps, AccessSigma: 1.2, BaseLoss: 0.0015,
		DegradationBoost: 1.0,
	},
	geo.NorthAmerica: {
		TrafficShare: 0.20, RTTMedian: 26 * time.Millisecond, RTTSigma: 0.80,
		AccessMedian: 14 * units.Mbps, AccessSigma: 1.2, BaseLoss: 0.0015,
		DegradationBoost: 0.8,
	},
	geo.SouthAmerica: {
		TrafficShare: 0.11, RTTMedian: 40 * time.Millisecond, RTTSigma: 0.55,
		AccessMedian: 7000 * units.Kbps, AccessSigma: 1.1, BaseLoss: 0.003,
		DegradationBoost: 1.8,
	},
	geo.Africa: {
		TrafficShare: 0.08, RTTMedian: 50 * time.Millisecond, RTTSigma: 0.55,
		RemoteShare: 0.22, RemoteRTTMedian: 105 * time.Millisecond,
		AccessMedian: 5500 * units.Kbps, AccessSigma: 1.05, BaseLoss: 0.0045,
		DegradationBoost: 2.0,
	},
	geo.Oceania: {
		TrafficShare: 0.05, RTTMedian: 28 * time.Millisecond, RTTSigma: 0.70,
		AccessMedian: 15 * units.Mbps, AccessSigma: 1.1, BaseLoss: 0.0015,
		DegradationBoost: 0.5,
	},
}

// TemporalClass is the behaviour a group is seeded with; the analysis
// (§3.4.2) must recover these labels from the data.
type TemporalClass int

// Seeded temporal behaviours.
const (
	Uneventful TemporalClass = iota
	Continuous
	Diurnal
	Episodic
)

// String names the class as the paper's Table 1 does.
func (c TemporalClass) String() string {
	switch c {
	case Uneventful:
		return "Uneventful"
	case Continuous:
		return "Continuous"
	case Diurnal:
		return "Diurnal"
	case Episodic:
		return "Episodic"
	}
	return fmt.Sprintf("TemporalClass(%d)", int(c))
}

// RouteCondition is one egress route's properties for a group.
type RouteCondition struct {
	Route bgp.Route
	// RTTDelta shifts the group's base RTT on this route (the preferred
	// route has delta 0; alternates are usually slightly worse, §6.2).
	RTTDelta time.Duration
	// LossDelta adds route-specific loss (congested interconnects).
	LossDelta float64
}

// Group is one user group: the aggregation unit of §3.3.
type Group struct {
	// PoP is the primary serving PoP (Cartographer's assignment at the
	// start of the study); PoPSchedule carries any mid-study remap.
	PoP       string
	Prefix    string
	ASN       int
	Country   string
	Continent geo.Continent

	// Weight is the group's relative traffic volume (Zipf across groups).
	Weight float64
	// BaseRTT is the propagation MinRTT on the preferred route.
	BaseRTT time.Duration
	// DistanceKm is the population→PoP great-circle distance;
	// CrossContinent marks groups served from another continent (§2.1).
	DistanceKm     float64
	CrossContinent bool
	// Access is the client population's median last-mile bandwidth.
	Access units.Rate
	// AccessSigma spreads per-session access draws within the group.
	AccessSigma float64
	// BaseLoss is the clean-path per-packet loss probability.
	BaseLoss float64
	// PoliceRate, when positive, is a token-bucket policing rate on the
	// group's access network (PoliceBurst bytes of burst).
	PoliceRate  units.Rate
	PoliceBurst int64

	// Routes lists the preferred route first, then the sampled
	// alternates, in policy order.
	Routes []RouteCondition

	// DegradeClass seeds §5 behaviour; Severity scales it.
	DegradeClass TemporalClass
	// DegradeRTT and DegradeLoss are the peak additional RTT and loss
	// applied during degradation episodes (at the destination network,
	// so they affect every route). DegradeBW multiplies the available
	// bandwidth during episodes (downstream congestion shrinks goodput,
	// driving HDratio degradation).
	DegradeRTT  time.Duration
	DegradeLoss float64
	DegradeBW   float64
	// PeakStartHour is the UTC hour at which diurnal degradation begins.
	PeakStartHour int
	// ActivityPeakUTC is the UTC hour of the group's traffic peak.
	ActivityPeakUTC int
	// EpisodeWindows lists window indexes (15-minute, from dataset
	// epoch) during which an episodic group degrades.
	EpisodeWindows map[int]bool

	// OppClass seeds §6 behaviour: when not Uneventful, the preferred
	// route carries OppRTT of extra latency (and optionally OppLoss)
	// during the class's active windows, so the best alternate beats it.
	OppClass TemporalClass
	OppRTT   time.Duration
	OppLoss  float64

	// PopulationShift models Figure 5: a second client subpopulation
	// with a different base RTT whose share varies by hour of day.
	PopulationShift *PopulationShift

	// PoPSchedule is Cartographer's serving-PoP assignment over the
	// dataset; a remapped group's samples carry the new PoP (and thus a
	// new group key), leaving the original group with a coverage gap
	// (§3.4.2).
	PoPSchedule []cartographer.Assignment
	// RemapRTTDelta is the extra propagation cost while served by the
	// remap target.
	RemapRTTDelta time.Duration
}

// PopulationShift is the Figure 5 construct: the same prefix serves two
// regions whose diurnal activity peaks at different hours.
type PopulationShift struct {
	AltRTT time.Duration
	// AltShareByHour gives the alternate subpopulation's share of
	// sessions for each UTC hour.
	AltShareByHour [24]float64
}

// WindowDuration is the aggregation window (§3.3).
const WindowDuration = 15 * time.Minute

// WindowsPerDay is derived from WindowDuration.
const WindowsPerDay = int(24 * time.Hour / WindowDuration)

// Config sizes a world.
type Config struct {
	// Seed drives all randomness; same seed, same world, same dataset.
	Seed uint64
	// Groups is the number of user groups.
	Groups int
	// Days is the dataset length (the paper's study is 10 days).
	Days int
	// SessionsPerGroupWindow is the mean sampled session count per group
	// per 15-minute window at weight 1.0 (scaled by group weight and the
	// diurnal activity curve).
	SessionsPerGroupWindow float64
	// AlternateRoutes is how many non-preferred routes are continuously
	// sampled (§6.2 default: 2).
	AlternateRoutes int
	// HostingShare is the fraction of sessions from hosting/VPN
	// addresses that the collector must filter (§2.2.4: ~2%).
	HostingShare float64
	// PolicedShare is the fraction of groups whose access networks
	// police traffic below the HD rate (§4's policing barrier).
	// Default 0: the calibrated profiles already fold policing-like
	// effects into loss; enable to study policing explicitly.
	PolicedShare float64
}

// DefaultConfig returns a laptop-scale world: the full 10-day window
// structure at a few hundred groups.
func DefaultConfig() Config {
	return Config{
		Seed:                   1,
		Groups:                 300,
		Days:                   10,
		SessionsPerGroupWindow: 8,
		AlternateRoutes:        2,
		HostingShare:           0.02,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Groups <= 0 {
		c.Groups = d.Groups
	}
	if c.Days <= 0 {
		c.Days = d.Days
	}
	if c.SessionsPerGroupWindow <= 0 {
		c.SessionsPerGroupWindow = d.SessionsPerGroupWindow
	}
	if c.AlternateRoutes <= 0 {
		c.AlternateRoutes = d.AlternateRoutes
	}
	if c.HostingShare <= 0 {
		c.HostingShare = d.HostingShare
	}
	return c
}

// Windows returns the number of 15-minute windows in the dataset.
func (c Config) Windows() int { return c.Days * WindowsPerDay }
