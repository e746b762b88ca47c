package main

// The five workloads. Names are fixed: later issues cite them.

// Every writeEvery-th op of served-mixed-durable is a small write (40 %
// set, 30 % create_post, 20 % merge_follow, 10 % delete_post); the rest,
// and all of the other served workloads, is the read mix: 50 % point,
// 30 % hop1, 20 % hop2.
const writeEvery = 10

// workload describes one traffic shape. A stream yields the next unit a
// caller waits for: one statement on a served workload, one whole cycle
// or pass of six statements on an embedded one. Latency is per unit;
// throughput counts statements.
type workload struct {
	name string
	why  string
	// served workloads go through cypherclient and a loopback
	// internal/server, one connection per client; embedded ones call the
	// cypher facade from one goroutine.
	served bool
	// durable workloads run on cypher.OpenDir with SyncAlways and the
	// default checkpoint size.
	durable bool
	// The traced pass replays traceWarm units unrecorded, then
	// traceUnits recorded, at each depth.
	traceWarm, traceUnits int
	streams               func(m *model, seed int64, clients int) []func() []*op
}

func clientStreams(adhoc bool, writeEvery int) func(*model, int64, int) []func() []*op {
	return func(m *model, seed int64, clients int) []func() []*op {
		out := make([]func() []*op, clients)
		for c := range out {
			g := newClientGen(m, seed, c, clients, adhoc, writeEvery)
			out[c] = func() []*op { return []*op{g.next()} }
		}
		return out
	}
}

var workloads = []*workload{
	{
		name:   "served-read",
		why:    "three parameterised read texts over the wire: codec, server, session facade and the cache-hit path do the work; parser, planner, commit and WAL do none",
		served: true, traceWarm: 200, traceUnits: 2000,
		streams: clientStreams(false, 0),
	},
	{
		name: "served-adhoc-read",
		why:  "the same reads with literals inlined and every text unique, so statement and plan caches miss: parser, plan builder and match planner do what served-read bypasses",
		// The warm-up fills the 4096-entry plan cache: a miss costs more
		// once every store has to evict.
		served: true, traceWarm: 5000, traceUnits: 2000,
		streams: clientStreams(true, 0),
	},
	{
		name:   "served-mixed-durable",
		why:    "90 % reads, 10 % small writes on an OpenDir SyncAlways database: writer baton, COW commit under pinned readers, Graph.Validate, WAL append, fsync and checkpoints do the work",
		served: true, durable: true, traceWarm: 60, traceUnits: 600,
		streams: clientStreams(false, writeEvery),
	},
	{
		name:      "embedded-update-batch",
		why:       "the paper's bulk import: six MERGE/SET/DELETE statements per cycle over Example-5 driving tables via DB.ExecTable; core clause functions, MERGE matching and commit work, wire and fsync do not",
		traceWarm: 1, traceUnits: 8,
		streams: func(m *model, seed int64, _ int) []func() []*op {
			g := newBatchGen(m, seed, batchRows)
			return []func() []*op{g.nextCycle}
		},
	},
	{
		name:      "embedded-analytic",
		why:       "six read-only scans, joins, aggregates and a DISTINCT pipeline over the whole graph per pass: match cursor, operator tree, expr evaluation, row allocation and the Exchange do the work",
		traceWarm: 1, traceUnits: 10,
		streams: func(m *model, _ int64, _ int) []func() []*op {
			pass := m.analyticPass()
			return []func() []*op{func() []*op { return pass }}
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
