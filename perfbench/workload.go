package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"domd/internal/domain"
	"domd/internal/navsim"
	"domd/internal/table"
)

// Fixed workload parameters. None depends on the seed or on how fast the
// tree under test is: the seed only changes the generated inputs and the
// op sequence drawn from them.
const (
	numClosed     = 187
	numOngoing    = 12
	meanRCCs      = 283
	clients       = 2  // closed-loop connections, one per CPU of the reference host
	prepRounds    = 4  // `domd train` runs and serve starts per run; train_s and setup_s are their medians
	recoverRounds = 2  // crash restarts per run; recover_s is their median
	tStarLo       = 20 // read dates are uniform over this t* range (percent)
	tStarHi       = 95
	// dateStrata is how many equal slices of [tStarLo, tStarHi] a
	// stream's reads of one route step through: each slice once per
	// round, in shuffled order, at a uniform point inside it.
	dateStrata = 16

	ingestCycle = 16 // the writer sends 15 POST /rccs, then a GET /query
	dupEvery    = 64 // one ingest in 64 re-sends an earlier record

	// liveIngestRate is the live-mix writer's open-loop rate, far under a
	// tenth of the ingest capacity measured on the reference host, so a
	// send rarely waits behind the one before it and the due-time
	// latency is the server's, not the writer connection's queue.
	liveIngestRate = 50 // per second
	rolloutEvery   = 2 * time.Second
	// A live-mix run whose generator runs later than these bounds did
	// not offer the load it claims and is refused. They pass the stalls
	// a shared disk puts into one fsync-per-ack connection and catch a
	// backlog that grows through the window.
	maxLateP99 = 500 * time.Millisecond
	maxLateMax = 2 * time.Second
)

// The dashboard read mix per client: 8 /predict : 4 /query : 1 /fleet.
var readMix = []string{
	"predict", "predict", "predict", "predict", "predict", "predict", "predict", "predict",
	"query", "query", "query", "query",
	"fleet",
}

// workload is one traffic mix against one server configuration.
type workload struct {
	name, why string
	rccScale  int
	shards    int // 0: no -wal-dir (in-memory ingestion)
	replicas  int
}

func (w *workload) durable() bool { return w.shards > 0 }

var workloads = []*workload{
	{
		name:     "dashboard",
		why:      "read-only with warm engines: features, model trajectory and conformal band do the work and the WAL none",
		rccScale: 4,
	},
	{
		name:     "live-mix",
		why:      "dashboard reads while a fixed-rate writer ingests into 2 shards x 3 replicas and rolls out models, so read caches pay for churn",
		rccScale: 4, shards: 2, replicas: 3,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// serveFlags are the storage flags this workload passes to `domd serve`.
func (w *workload) serveFlags(walDir string) []string {
	if !w.durable() {
		return nil
	}
	return []string{"-wal-dir", walDir, "-fsync", "always",
		"-shards", fmt.Sprint(w.shards), "-repl", fmt.Sprint(w.replicas)}
}

// dataset is the generated input, as read back from the CSVs the server
// loads, so in-process checks see exactly the server's numbers.
type dataset struct {
	availsPath, rccsPath string
	avails               []domain.Avail
	rccs                 []domain.RCC
	byAvail              map[int][]domain.RCC
	ongoing              []int
	fleetRef             int // an ongoing avail whose timeline dates /fleet reads
	maxRCCID             int
}

func makeData(dir string, seed int64, scale int) (*dataset, error) {
	ds, err := navsim.Generate(navsim.Config{
		NumClosed: numClosed, NumOngoing: numOngoing, MeanRCCsPerAvail: meanRCCs, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	if err := normalizeOngoing(ds, rand.New(rand.NewSource(seed))); err != nil {
		return nil, err
	}
	if scale > 1 {
		if ds, err = navsim.Scale(ds, scale); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &dataset{
		availsPath: filepath.Join(dir, "avails.csv"),
		rccsPath:   filepath.Join(dir, "rccs.csv"),
	}
	if err := writeFile(d.availsPath, func(f *os.File) error { return table.WriteAvails(f, ds.Avails) }); err != nil {
		return nil, err
	}
	if err := writeFile(d.rccsPath, func(f *os.File) error { return table.WriteRCCs(f, ds.RCCs) }); err != nil {
		return nil, err
	}
	if err := d.readBack(); err != nil {
		return nil, err
	}
	return d, nil
}

// ongoingProfile fixes how many RCCs each ongoing avail carries (×1
// scale, smallest to largest): navsim's own counts at seed 1. Per-request
// cost grows with an avail's history, so with sizes left to the seed the
// spread between seeds would swamp any change under test; the seed still
// draws the avails, their dates and which records they hold.
var ongoingProfile = []int{98, 181, 197, 223, 224, 227, 236, 262, 272, 286, 354, 499}

// ongoingPlanDays is the planned duration every ongoing avail is
// stretched to, the middle of navsim's 120–720 days.
const ongoingPlanDays = 420

// normalizeOngoing resamples every ongoing avail's RCCs to its rank's
// count in ongoingProfile (a seeded subset when it has more, plus copies
// of its own records under fresh ids when it has fewer), and moves and
// stretches each ongoing avail with its records in time so all of them
// start on the same day and last ongoingPlanDays as planned. Every record
// keeps its place on the avail's logical timeline (its share of the
// planned duration, up to a day's rounding). A /fleet read at one date
// then finds every avail equally far along, so how much work it does
// depends on that date alone, not on the seed's start dates and planned
// durations.
func normalizeOngoing(ds *navsim.Dataset, rng *rand.Rand) error {
	byAvail := map[int][]domain.RCC{}
	maxID := 0
	for _, r := range ds.RCCs {
		byAvail[r.AvailID] = append(byAvail[r.AvailID], r)
		maxID = max(maxID, r.ID)
	}
	var ongoing []int
	for _, a := range ds.Avails {
		if a.Status == domain.StatusOngoing {
			ongoing = append(ongoing, a.ID)
		}
	}
	if len(ongoing) != len(ongoingProfile) {
		return fmt.Errorf("generated %d ongoing avails, the size profile has %d", len(ongoing), len(ongoingProfile))
	}
	sort.Slice(ongoing, func(i, j int) bool {
		ni, nj := len(byAvail[ongoing[i]]), len(byAvail[ongoing[j]])
		return ni < nj || (ni == nj && ongoing[i] < ongoing[j])
	})
	keep := map[int]bool{} // RCC ids kept for ongoing avails
	maxKept := maxID       // ids above it are the copies in extra
	var extra []domain.RCC
	for rank, id := range ongoing {
		hist, want := byAvail[id], ongoingProfile[rank]
		if len(hist) == 0 {
			return fmt.Errorf("ongoing avail %d has no RCCs to resample", id)
		}
		for _, i := range rng.Perm(len(hist))[:min(want, len(hist))] {
			keep[hist[i].ID] = true
		}
		for n := len(hist); n < want; n++ {
			r := hist[rng.Intn(len(hist))]
			maxID++
			r.ID = maxID
			extra = append(extra, r)
		}
	}
	isOngoing := map[int]bool{}
	for _, id := range ongoing {
		isOngoing[id] = true
	}
	var start domain.Day
	for _, a := range ds.Avails {
		if isOngoing[a.ID] {
			start = max(start, a.ActStart)
		}
	}
	// remap moves a day of avail id's old timeline onto its new one.
	type stretch struct {
		from domain.Day
		k    float64
	}
	remaps := map[int]stretch{}
	remap := func(id int, d domain.Day) domain.Day {
		m := remaps[id]
		return start + domain.Day(math.Round(float64(d-m.from)*m.k))
	}
	for i := range ds.Avails {
		a := &ds.Avails[i]
		if isOngoing[a.ID] {
			remaps[a.ID] = stretch{a.ActStart, float64(ongoingPlanDays) / float64(a.PlannedDuration())}
			a.PlanStart = start - (a.ActStart - a.PlanStart)
			a.PlanEnd = a.PlanStart + ongoingPlanDays
			a.ActStart = start
		}
	}
	out := ds.RCCs[:0:0]
	for _, r := range append(ds.RCCs, extra...) {
		if isOngoing[r.AvailID] && (keep[r.ID] || r.ID > maxKept) {
			r.Created = remap(r.AvailID, r.Created)
			r.Settled = remap(r.AvailID, r.Settled)
			out = append(out, r)
		} else if !isOngoing[r.AvailID] {
			out = append(out, r)
		}
	}
	ds.RCCs = out
	return nil
}

func (d *dataset) readBack() error {
	af, err := os.Open(d.availsPath)
	if err != nil {
		return err
	}
	defer af.Close()
	if d.avails, err = table.ReadAvails(af); err != nil {
		return err
	}
	rf, err := os.Open(d.rccsPath)
	if err != nil {
		return err
	}
	defer rf.Close()
	if d.rccs, err = table.ReadRCCs(rf); err != nil {
		return err
	}
	d.byAvail = map[int][]domain.RCC{}
	for _, r := range d.rccs {
		d.byAvail[r.AvailID] = append(d.byAvail[r.AvailID], r)
		d.maxRCCID = max(d.maxRCCID, r.ID)
	}
	for _, a := range d.avails {
		if a.Status == domain.StatusOngoing {
			d.ongoing = append(d.ongoing, a.ID)
		}
	}
	sort.Ints(d.ongoing)
	if len(d.ongoing) != numOngoing {
		return fmt.Errorf("generated %d ongoing avails, want %d", len(d.ongoing), numOngoing)
	}
	d.fleetRef = d.ongoing[0]
	return nil
}

func (d *dataset) avail(id int) *domain.Avail {
	for i := range d.avails {
		if d.avails[i].ID == id {
			return &d.avails[i]
		}
	}
	return nil
}

func writeFile(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close() //lint:ignore droppederr best-effort close; the write failure is returned
		return err
	}
	return f.Close()
}

// op is one request of a workload.
type op struct {
	route string // query, predict, fleet, ingest, reload
	avail int
	date  domain.Day
	rcc   domain.RCC // ingest only
	dup   bool       // ingest: re-send of an earlier record under its key
}

func (o *op) key() string { return fmt.Sprintf("perfbench-%d", o.rcc.ID) }

// Id lanes keep the RCC ids of every op stream distinct: stream lane L
// numbers its n-th new record base + n·idLanes + L.
const (
	idLanes        = 8
	laneWriter     = clients // live-mix writer
	laneAllocsPass = idLanes - 1
)

// opStream draws one client's deterministic op sequence.
type opStream struct {
	d       *dataset
	rng     *rand.Rand
	lane    int
	base    int
	n       int // new records drawn
	block   []string
	sent    []domain.RCC // records this stream created, for re-sends
	ingests int
	last    int // avail of the latest ingest

	// Per read route, what is left of the current round of avails
	// and of t* slices. Reads are per-request work that grows with an
	// avail's history and with t*; stepping through both in shuffled
	// rounds, instead of drawing them independently, gives every
	// seed and every run the same mix of cheap and costly reads, so
	// the medians follow the program and not the draw.
	availRound, strataRound map[string][]int
}

func newOpStream(d *dataset, seed int64, lane int) *opStream {
	return &opStream{
		d:           d,
		rng:         rand.New(rand.NewSource(seed*1_000_003 + int64(lane)*7919 + 1)),
		lane:        lane,
		base:        d.maxRCCID + 1,
		availRound:  map[string][]int{},
		strataRound: map[string][]int{},
	}
}

func (s *opStream) pickAvail() int { return s.d.ongoing[s.rng.Intn(len(s.d.ongoing))] }

// readDate draws a date whose t* is uniform over [tStarLo, tStarHi].
func (s *opStream) readDate(id int) domain.Day {
	ts := tStarLo + s.rng.Float64()*(tStarHi-tStarLo)
	return s.d.avail(id).PhysicalTime(ts)
}

// nextOf takes the next index of a shuffled round of n for route,
// starting a new round when the last one is used up.
func (s *opStream) nextOf(rounds map[string][]int, route string, n int) int {
	if len(rounds[route]) == 0 {
		rounds[route] = s.rng.Perm(n)
	}
	k := rounds[route][0]
	rounds[route] = rounds[route][1:]
	return k
}

// roundAvail is the next ongoing avail of route's round.
func (s *opStream) roundAvail(route string) int {
	return s.d.ongoing[s.nextOf(s.availRound, route, len(s.d.ongoing))]
}

// roundDate is a date for avail id at a t* uniform inside the next slice
// of route's round, so t* is still uniform over [tStarLo, tStarHi].
func (s *opStream) roundDate(route string, id int) domain.Day {
	k := s.nextOf(s.strataRound, route, dateStrata)
	ts := tStarLo + (float64(k)+s.rng.Float64())/dateStrata*(tStarHi-tStarLo)
	return s.d.avail(id).PhysicalTime(ts)
}

// nextRead draws from the dashboard mix, a shuffled block of 13 at a
// time so every block holds the exact ratio.
func (s *opStream) nextRead() op {
	if len(s.block) == 0 {
		s.block = append([]string(nil), readMix...)
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	route := s.block[0]
	s.block = s.block[1:]
	return s.nextRoute(route)
}

// nextIngest draws a new record for a random ongoing avail (a copy of one
// of its historical RCCs under a fresh id, so every field is valid), or
// every dupEvery-th time a re-send of one this stream sent recently.
func (s *opStream) nextIngest() op {
	s.ingests++
	if s.ingests%dupEvery == 0 && len(s.sent) > 0 {
		back := 1 + s.rng.Intn(min(16, len(s.sent)))
		r := s.sent[len(s.sent)-back]
		return op{route: "ingest", avail: r.AvailID, rcc: r, dup: true}
	}
	id := s.pickAvail()
	hist := s.d.byAvail[id]
	r := hist[s.rng.Intn(len(hist))]
	r.ID = s.base + s.n*idLanes + s.lane
	s.n++
	r.Amount = math.Round(r.Amount*(0.5+s.rng.Float64())*100) / 100
	s.sent = append(s.sent, r)
	if len(s.sent) > 64 {
		s.sent = s.sent[len(s.sent)-64:]
	}
	s.last = id
	return op{route: "ingest", avail: id, rcc: r}
}

// nextIngestMix is the writer's cycle: 15 ingests, then a /query on the
// avail written last, which must already count every acknowledged RCC.
func (s *opStream) nextIngestMix(i int) op {
	if i%ingestCycle == ingestCycle-1 && s.last != 0 {
		return op{route: "query", avail: s.last, date: s.readDate(s.last)}
	}
	return s.nextIngest()
}

// nextRoute draws an op of one route, for the
// per-route allocation pass.
func (s *opStream) nextRoute(route string) op {
	switch route {
	case "ingest":
		o := s.nextIngest()
		for o.dup {
			o = s.nextIngest()
		}
		return o
	case "fleet":
		// All ongoing avails share one timeline (normalizeOngoing),
		// so the date's t* is the same for each of them.
		return op{route: "fleet", date: s.roundDate(route, s.d.fleetRef)}
	default:
		id := s.roundAvail(route)
		return op{route: route, avail: id, date: s.roundDate(route, id)}
	}
}
