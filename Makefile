# Tier-1 CI for the Converse reproduction.
#
#   make tier1         vet + build + test (the ROADMAP tier-1 gate)
#   make race          full test suite under the race detector
#   make machine-race  the machine layer alone under -race
#   make overhead      zero-allocation gate: the disabled-path
#                      observability benchmarks, the simulated
#                      steady-state send path and collectives, the
#                      tcp stream benchmark and the cth thread switch must
#                      report zero allocations; plus a
#                      footprint gate of 200 KB per tcp node bring-up
#                      and a connection budget per warm gang-2 service
#                      job: at most 0.01 gateway connections (client
#                      and control traffic) and exactly one mesh link
#   make bench         comm fast-path benchmarks; writes BENCH_comm.json
#   make commbench-smoke
#                      a full commbench run, byte-compared with
#                      BENCH_comm.json
#   make net-smoke     multi-process smoke: jacobi + quickstart + commbench
#                      under converserun -np 4 on real TCP sockets
#   make chaos-smoke   reliability gate: jacobi under a fault plan must
#                      converge byte-identically with the retry policy,
#                      and die fast under failfast
#   make bench-faults  throughput-vs-loss sweep; writes BENCH_faults.json
#   make bench-collectives
#                      flat-vs-tree broadcast sweep over node shapes;
#                      writes BENCH_collectives.json
#   make collectives-smoke
#                      SMP-hybrid smoke: jacobi as a 4-node x 2-PE TCP
#                      job (converserun -nodes/-ppn) plus the full
#                      collectives sweep, byte-compared with
#                      BENCH_collectives.json
#   make monitor-smoke live-introspection gate: jacobi -np 4 with
#                      converserun -monitor, scraped with conversetop
#                      (tables, JSON, and a CPU capture)
#   make service-smoke elastic-service gate: the 3-daemon/36-job churn
#                      soak (kill + rejoin a daemon mid-burst, hard
#                      completion budget, zero leaked goroutines) plus
#                      a conversed/converserun -daemon/conversetop
#                      -jobs end-to-end run over real binaries
#   make bench-jobs    warm-service vs cold-launch job throughput;
#                      writes BENCH_jobs.json
#   make profile       the 8..256-PE scale ladder; writes BENCH_scale.json
#   make lint          converselint (msgownership, handlerreg,
#                      blockinhandler, noallocinhot, wirekinds,
#                      atomicmix, lockdiscipline) over the whole repo,
#                      via go vet -vettool — run twice, so the second
#                      pass also proves the .vetx fact cache replays
#   make msgcheck-test full test suite with the dynamic ownership
#                      checker compiled in (-tags msgcheck)
#   make fuzz-smoke    every byte-stream decoder fuzzed for a short fixed
#                      time past its seed corpus
#   make perfbench-smoke
#                      vet and test the perfbench module, which go build
#                      ./... never compiles (it is a module of its own)
#   make ci            tier1 + race gates + overhead + lint + msgcheck + smokes

GO ?= go

.PHONY: ci tier1 vet build test race machine-race overhead bench bench-faults bench-collectives bench-jobs commbench-smoke net-smoke chaos-smoke collectives-smoke monitor-smoke service-smoke chaos-service-smoke profile lint msgcheck-test fuzz-smoke perfbench-smoke

ci: tier1 race machine-race overhead lint msgcheck-test fuzz-smoke commbench-smoke net-smoke chaos-smoke collectives-smoke monitor-smoke service-smoke chaos-service-smoke perfbench-smoke

tier1: vet build test

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Static ownership/protocol/concurrency checks: build converselint and
# run it the way editors and CI caches like best — as a go vet tool.
# Findings exit nonzero. The second vet pass is the fact-cache sanity
# leg: it must succeed replaying the .vetx fact files the first pass
# wrote (a fact that gob-decodes differently, or a nondeterministic
# analyzer, fails exactly here). `go run ./cmd/converselint ./...` is
# the cache-free standalone equivalent.
lint:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp/converselint ./cmd/converselint && \
	$(GO) vet -vettool=$$tmp/converselint ./... && \
	$(GO) vet -vettool=$$tmp/converselint ./... && \
	echo 'lint: msgownership handlerreg blockinhandler noallocinhot wirekinds atomicmix lockdiscipline clean (facts cached + replayed)'

# Dynamic ownership checks: the whole suite with the msgcheck runtime
# checker compiled in (poisoned pools, generation stamps, checked
# accessors). Catches use-after-transfer the static analyzer cannot see.
msgcheck-test:
	$(GO) test -tags msgcheck ./...

# Fuzz smoke: `go test` runs each fuzzer's seed corpus only; this runs
# every decoder that reads bytes from a socket (the coalesced pack
# unpacker, the mnet frame, data-payload and stream-reader decoders, the
# shared JSON request/reply reader, and the daemon session's control
# envelope), plus the gateway's journal replay over torn and garbage
# tails, under the fuzzing engine for a
# short fixed time. A crasher fails the target and is saved under the
# package's testdata/fuzz for replay.
fuzz-smoke:
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzUnpack$$' -fuzztime 10s -parallel 2
	$(GO) test ./internal/mnet/ -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime 10s -parallel 2
	$(GO) test ./internal/mnet/ -run '^$$' -fuzz '^FuzzDataPayload$$' -fuzztime 10s -parallel 2
	$(GO) test ./internal/mnet/ -run '^$$' -fuzz '^FuzzFrameReader$$' -fuzztime 10s -parallel 2
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzReadJSON$$' -fuzztime 10s -parallel 2
	$(GO) test ./internal/service/ -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime 10s -parallel 2
	$(GO) test ./internal/service/ -run '^$$' -fuzz '^FuzzCtrlEnvelope$$' -fuzztime 10s -parallel 2

# The machine layer holds the PE inbox every in-process send crosses
# (many producers, one consumer); gate it separately under -race so a
# failure names the layer directly.
machine-race:
	$(GO) test -race ./internal/machine/...

# Overhead gate: run the zero-overhead-when-off benchmarks and fail if
# any reports a nonzero allocation count. BenchmarkDispatchOff,
# BenchmarkNullTracerOverhead and BenchmarkMetricsEnabled cover the full
# dispatch path; BenchmarkMetricsDisabled covers the raw hooks;
# BenchmarkMonitorIdle proves a live but unpolled monitor endpoint is
# invisible to the scheduler; BenchmarkSendAndFreeSteadyState and its
# Coalesced twin hold the simulated cross-PE send -> inbox -> receive ->
# free path to zero (every buffer from and back to the per-PE pool);
# BenchmarkCollectiveSteadyState (an AllReduce plus a Barrier on an
# 8-PE, 4-node x 2-PE simulated machine) holds the collective engine and
# the conductor's PE-to-PE switches there too, and
# BenchmarkReduceSteadyState (a plain Reduce plus a Barrier) and
# BenchmarkFanInSteadyState (bursts from 7 PEs to PE 0, freed there) on
# the same machine hold the machine-wide depot that carries buffers
# back from the receiver's full pool to the senders';
# BenchmarkNetStream (a 64-message window of 256 B between two
# in-process TCP nodes, plus the ack) holds the tcp send -> pack ->
# frame -> receive -> unpack -> dispatch path to the same zero, and BenchmarkNetPingPong (one 64 B round trip, a pack of
# one each way) holds the one-message tcp path there too.
# BenchmarkThreadSwitch (main resumes a cth thread that suspends back)
# and BenchmarkThreadSwitchBetweenThreads (two threads resuming each
# other through main's trampoline) hold a thread object's coroutine
# switch to zero as well. The footprint
# leg runs BenchmarkNodeBringUp (a control server, two nodes joined, a
# 20-round-trip pingpong, close — a small job's whole life) and fails
# above 200 KB allocated per bring-up. The connection leg runs
# BenchmarkWarmJob (submit, follow logs, status of a gang-2 job on an
# in-process gateway with two daemons) and fails when a warm job opens
# more than 0.01 gateway connections — the ranks' control links ride the
# daemon sessions, so this covers control traffic too — or when the
# daemons' mesh listeners accept anything but NP-1 = 1 connection per
# job, so a per-job listener or dial that comes back fails the gate.
overhead:
	@out=$$($(GO) test ./internal/core/ -run '^$$' \
		-bench 'DispatchOff|NullTracerOverhead|MetricsEnabled|MetricsDisabled|MonitorIdle' \
		-benchmem -benchtime 200000x && \
		$(GO) test ./internal/bench/ -run '^$$' -bench 'SendAndFreeSteadyState|CollectiveSteadyState|ReduceSteadyState|FanInSteadyState' \
		-benchmem -benchtime 20000x && \
		$(GO) test ./internal/mnet/ -run '^$$' -bench 'NetStream|NetPingPong' \
		-benchmem -benchtime 5000x && \
		$(GO) test ./internal/cth/ -run '^$$' -bench 'ThreadSwitch' \
		-benchmem -benchtime 200000x) || { echo "$$out"; echo 'FAIL: overhead benchmarks did not run'; exit 1; }; \
	echo "$$out"; \
	if echo "$$out" | grep -E ' [1-9][0-9]* allocs/op'; then \
		echo 'FAIL: observability path allocates when it must not'; exit 1; \
	fi; \
	echo 'overhead gate: 0 allocs/op on all instrumented paths'; \
	out=$$($(GO) test ./internal/mnet/ -run '^$$' -bench 'NodeBringUp' \
		-benchmem -benchtime 50x) || { echo "$$out"; echo 'FAIL: bring-up benchmark did not run'; exit 1; }; \
	echo "$$out"; \
	bop=$$(echo "$$out" | awk '/^BenchmarkNodeBringUp/ { for (i = 2; i < NF; i++) if ($$(i+1) == "B/op") print $$i }'); \
	if [ -z "$$bop" ] || [ "$$bop" -gt 200000 ]; then \
		echo "FAIL: a node bring-up allocates $${bop:-?} B, over the 200000 B budget"; exit 1; \
	fi; \
	echo "footprint gate: $$bop B per node bring-up (budget 200000)"; \
	out=$$($(GO) test ./internal/service/ -run '^$$' -bench 'WarmJob' \
		-benchmem -benchtime 50x) || { echo "$$out"; echo 'FAIL: warm-job benchmark did not run'; exit 1; }; \
	echo "$$out"; \
	cpo=$$(echo "$$out" | awk '/^BenchmarkWarmJob/ { for (i = 2; i < NF; i++) if ($$(i+1) == "conns/op") print $$i }'); \
	if [ -z "$$cpo" ] || awk -v c="$$cpo" 'BEGIN { exit !(c > 0.01) }'; then \
		echo "FAIL: a warm job opens $${cpo:-?} gateway connections, over the 0.01 budget"; exit 1; \
	fi; \
	mpo=$$(echo "$$out" | awk '/^BenchmarkWarmJob/ { for (i = 2; i < NF; i++) if ($$(i+1) == "meshconns/op") print $$i }'); \
	if [ -z "$$mpo" ] || awk -v c="$$mpo" 'BEGIN { exit !(c != 1) }'; then \
		echo "FAIL: a warm gang-2 job opens $${mpo:-?} mesh connections, want exactly 1"; exit 1; \
	fi; \
	echo "connection gate: $$cpo gateway connections and $$mpo mesh connections per warm job (budgets 0.01 and 1)"

# Full benchmark pass: the core micro-benchmarks, the steady-state
# send benchmarks (gated at 0 allocs/op by overhead), and the commbench
# report (BENCH_comm.json).
bench:
	$(GO) test ./internal/core/ -run '^$$' -bench . -benchmem
	$(GO) test ./internal/bench/ -run '^$$' -bench SendAndFreeSteadyState \
		-benchmem -benchtime 20000x
	$(GO) run ./cmd/commbench -o BENCH_comm.json

# Comm fast-path gate: a full commbench run, compared byte for byte
# with BENCH_comm.json. Fan-in and ping-pong are virtual time rounded to
# the nanosecond, so reruns write the identical file and any change to a
# modeled cost or to the coalescing path shows up as a diff: such a
# change must regenerate the file (make bench) in the same change.
# perfbench is its own module over converse's internal packages, so an
# internal API change that breaks it would otherwise surface only as a
# failed benchmark run.
perfbench-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

commbench-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/commbench -o $$tmp/comm.json >/dev/null && \
	cmp $$tmp/comm.json BENCH_comm.json && \
	echo 'commbench-smoke: fan-in and ping-pong report matches BENCH_comm.json'

# Multi-process smoke: real programs as converserun jobs, each rank an
# OS process on the TCP machine layer, with a hard timeout so a
# distributed hang fails CI instead of wedging it. The example binaries
# run unmodified — the same sources `go run` executes in-process.
net-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp/converserun ./cmd/converserun && \
	$(GO) build -o $$tmp/jacobi ./examples/jacobi && \
	$(GO) build -o $$tmp/quickstart ./examples/quickstart && \
	$(GO) build -o $$tmp/commbench ./cmd/commbench && \
	$$tmp/converserun -np 4 -timeout 120s $$tmp/jacobi && \
	$$tmp/converserun -np 4 -timeout 120s $$tmp/quickstart && \
	$$tmp/commbench -transport tcp -pes 4 -smoke -o /dev/null && \
	echo 'net-smoke: jacobi + quickstart + commbench ok under converserun -np 4'

# Chaos gate: jacobi -np 4 under a 1% drop plan plus a scripted mid-run
# link kill must (a) exit 0 under the retry policy, (b) produce output
# byte-identical to a fault-free run once the reliability summary and
# the nondeterministic monitor count are filtered out, and (c) report
# nonzero retransmit and recovery counters proving the faults actually
# bit. A failfast leg with the same link kill must exit nonzero. Hard
# timeouts turn a distributed hang into a CI failure.
chaos-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp/converserun ./cmd/converserun && \
	$(GO) build -o $$tmp/jacobi ./examples/jacobi && \
	$$tmp/converserun -np 4 -timeout 120s $$tmp/jacobi -perpe 8 > $$tmp/clean.out && \
	$$tmp/converserun -np 4 -timeout 120s -heartbeat 50ms -failure retry \
		-faults 'seed=7,drop=0.01,killlink=1-0@120' \
		$$tmp/jacobi -perpe 8 > $$tmp/chaos.out && \
	grep -v -e '\[reliability\]' -e 'monitor' $$tmp/clean.out | sort > $$tmp/clean.cmp && \
	grep -v -e '\[reliability\]' -e 'monitor' $$tmp/chaos.out | sort > $$tmp/chaos.cmp && \
	cmp $$tmp/clean.cmp $$tmp/chaos.cmp && \
	grep -q 'retransmits=[1-9]' $$tmp/chaos.out && \
	grep -q -e 'recoveries=[1-9]' -e 'link_downs=[1-9]' $$tmp/chaos.out && \
	if $$tmp/converserun -np 4 -timeout 60s -heartbeat 250ms \
		-faults 'seed=7,killlink=1-0@120' \
		$$tmp/jacobi -perpe 8 > $$tmp/failfast.out 2>&1; then \
		echo 'FAIL: failfast survived a scripted link kill'; \
		cat $$tmp/failfast.out; exit 1; \
	fi && \
	echo 'chaos-smoke: retry converged byte-identically under faults; failfast died as required'

# Throughput-vs-loss sweep on the TCP transport under the retry policy;
# writes BENCH_faults.json (the table EXPERIMENTS.md quotes).
bench-faults:
	$(GO) run ./cmd/commbench -transport tcp -faults sweep

# Flat-vs-tree broadcast sweep across machine sizes and node shapes
# (1/4/8 PEs per node) on the modeled sim substrate; writes
# BENCH_collectives.json (the table EXPERIMENTS.md quotes). Virtual
# time: the table is deterministic.
bench-collectives:
	$(GO) run ./cmd/commbench -collectives -o BENCH_collectives.json

# SMP-hybrid smoke: the same jacobi binary as a 4-node x 2-PE TCP job
# — 4 worker processes hosting 2 PEs each, intra-node traffic on the
# in-memory path, inter-node on the wire — plus the full collectives
# sweep, regenerated and compared byte for byte with
# BENCH_collectives.json: the sweep times broadcasts in virtual time,
# so any change to the broadcast tree's shape or envelope sizes shows
# up as a diff (reductions are not in the sweep).
collectives-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp/converserun ./cmd/converserun && \
	$(GO) build -o $$tmp/jacobi ./examples/jacobi && \
	$$tmp/converserun -np 8 -nodes 4 -ppn 2 -timeout 120s $$tmp/jacobi && \
	$(GO) run ./cmd/commbench -collectives -o $$tmp/collectives.json >/dev/null && \
	cmp $$tmp/collectives.json BENCH_collectives.json && \
	echo 'collectives-smoke: jacobi ok as 4 nodes x 2 PEs; collectives sweep matches BENCH_collectives.json'

# Live-introspection gate: jacobi as a 4-rank TCP job held open by
# -minwall, its mesh monitor scraped three ways with conversetop — the
# JSON snapshot must be well-formed and cover all 4 PEs, the rendered
# table must show 4 PE rows, and a CPU capture through the same socket
# must parse as a pprof profile (conversetop validates it before
# reporting). The job itself must still exit 0 afterwards.
monitor-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	{ $(GO) build -o $$tmp/converserun ./cmd/converserun && \
	  $(GO) build -o $$tmp/jacobi ./examples/jacobi && \
	  $(GO) build -o $$tmp/conversetop ./cmd/conversetop; } || exit 1; \
	( $$tmp/converserun -np 4 -timeout 120s -monitor 127.0.0.1:0 \
		$$tmp/jacobi -perpe 8 -minwall 15s > $$tmp/job.out 2>&1; \
		echo $$? > $$tmp/job.rc ) & \
	jobpid=$$!; \
	addr=; tok=; \
	for i in $$(seq 1 200); do \
		set -- $$(sed -n 's/^converserun: monitor on \(.*\) token \(.*\)$$/\1 \2/p' $$tmp/job.out); \
		addr=$$1; tok=$$2; [ -n "$$addr" ] && break; sleep 0.1; \
	done; \
	if [ -z "$$addr" ]; then \
		echo 'FAIL: converserun never printed the monitor address'; \
		cat $$tmp/job.out; exit 1; \
	fi; \
	$$tmp/conversetop -connect $$addr -token $$tok -once -json > $$tmp/snap.json && \
	grep -q '"schema": "converse-ccs/1"' $$tmp/snap.json && \
	grep -q '"num_pes": 4' $$tmp/snap.json && \
	grep -q '"metrics"' $$tmp/snap.json && \
	test $$(grep -c '"pe":' $$tmp/snap.json) -eq 4 && \
	$$tmp/conversetop -connect $$addr -token $$tok -once > $$tmp/top.out && \
	grep -q 'converse mesh: 4 PEs, 4 reachable' $$tmp/top.out && \
	$$tmp/conversetop -connect $$addr -token $$tok \
		-pprof cpu -seconds 1 -rank 0 -o $$tmp/cpu.pprof > $$tmp/prof.out && \
	grep -q 'cpu profile:' $$tmp/prof.out && \
	test -s $$tmp/cpu.pprof && \
	wait $$jobpid ; \
	if [ "$$(cat $$tmp/job.rc)" != 0 ]; then \
		echo 'FAIL: monitored jacobi job exited nonzero'; \
		cat $$tmp/job.out; exit 1; \
	fi; \
	echo 'monitor-smoke: snapshot + table + cpu capture ok against a live 4-rank mesh'

# Elastic-service gate, two legs. The soak (TestServiceSoak) is the
# hard one: 3 daemons x 4 slots, 36 concurrent mixed jacobi/pingpong
# jobs, one daemon killed and a replacement joined mid-burst — every
# job must finish inside the budget (churned gangs requeue onto the
# survivors) and teardown must return to the baseline goroutine count.
# The CLI leg proves the real binaries: a conversed gateway with its
# local daemon, concurrent converserun -daemon submits (flag and
# CONVERSED_ADDR forms), and conversetop -jobs reading back the table.
service-smoke:
	$(GO) test ./internal/service/ -run 'TestServiceSoak' -count=1 -timeout 180s -v
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"; kill $$gpid 2>/dev/null' EXIT && \
	{ $(GO) build -o $$tmp/conversed ./cmd/conversed && \
	  $(GO) build -o $$tmp/converserun ./cmd/converserun && \
	  $(GO) build -o $$tmp/conversetop ./cmd/conversetop; } || exit 1; \
	$$tmp/conversed -listen 127.0.0.1:0 -slots 4 -token smoke 2> $$tmp/conversed.log & \
	gpid=$$!; \
	addr=; \
	for i in $$(seq 1 100); do \
		addr=$$(sed -n 's/^conversed: gateway on \(.*\) (.*$$/\1/p' $$tmp/conversed.log); \
		[ -n "$$addr" ] && break; sleep 0.1; \
	done; \
	if [ -z "$$addr" ]; then \
		echo 'FAIL: conversed never printed its gateway address'; \
		cat $$tmp/conversed.log; exit 1; \
	fi; \
	$$tmp/converserun -daemon $$addr -token smoke -np 4 -timeout 60s jacobi '{"n":32,"iters":8}' && \
	CONVERSED_ADDR=$$addr CONVERSED_TOKEN=smoke \
		$$tmp/converserun -np 2 -timeout 60s pingpong '{"iters":200,"bytes":128}' && \
	$$tmp/conversetop -connect $$addr -token smoke -jobs -once > $$tmp/jobs.out && \
	grep -q 'jacobi.*done' $$tmp/jobs.out && \
	grep -q 'pingpong.*done' $$tmp/jobs.out && \
	echo 'service-smoke: churn soak + conversed/converserun/conversetop e2e ok'

# Crash-tolerance gate, two legs. TestServiceChaos is the PR-8 soak
# with the control plane itself under attack: 24 mixed jobs on
# 3 daemons x 4 slots while one daemon is SIGKILLed and replaced, the
# gateway is hard-stopped mid-burst (no clean shutdown, sockets cut)
# and restarted from its journal, and a second daemon is drained
# gracefully — every job must reach exactly one terminal state, no
# job may run twice past its requeue budget, and teardown must return
# to the baseline goroutine count. The CLI leg proves the same story
# with the real binaries: a -state gateway takes a job to done and a
# second job past its -deadline (distinct terminal reason), then is
# killed with SIGKILL and restarted on the same address — the journal
# must replay both terminal jobs (epoch 2 in conversetop), and the
# recovered gateway must still schedule fresh work.
chaos-service-smoke:
	$(GO) test ./internal/service/ -run 'TestServiceChaos' -count=1 -timeout 300s -v
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"; kill $$gpid 2>/dev/null' EXIT && \
	{ $(GO) build -o $$tmp/conversed ./cmd/conversed && \
	  $(GO) build -o $$tmp/converserun ./cmd/converserun && \
	  $(GO) build -o $$tmp/conversetop ./cmd/conversetop; } || exit 1; \
	$$tmp/conversed -listen 127.0.0.1:0 -slots 4 -token smoke -state $$tmp/state 2> $$tmp/conversed.log & \
	gpid=$$!; \
	addr=; \
	for i in $$(seq 1 100); do \
		addr=$$(sed -n 's/^conversed: gateway on \(.*\) (.*$$/\1/p' $$tmp/conversed.log); \
		[ -n "$$addr" ] && break; sleep 0.1; \
	done; \
	if [ -z "$$addr" ]; then \
		echo 'FAIL: conversed never printed its gateway address'; \
		cat $$tmp/conversed.log; exit 1; \
	fi; \
	$$tmp/converserun -daemon $$addr -token smoke -np 4 -timeout 60s jacobi '{"n":32,"iters":8}' || \
		{ echo 'FAIL: pre-crash jacobi job failed'; exit 1; }; \
	if $$tmp/converserun -daemon $$addr -token smoke -np 2 -timeout 60s -deadline 300ms \
			pingpong '{"iters":500000,"bytes":64}'; then \
		echo 'FAIL: over-deadline job was not killed'; exit 1; \
	fi; \
	kill -9 $$gpid; wait $$gpid 2>/dev/null; \
	$$tmp/conversed -listen $$addr -slots 4 -token smoke -state $$tmp/state -recovery 1s 2> $$tmp/conversed2.log & \
	gpid=$$!; \
	up=; \
	for i in $$(seq 1 100); do \
		up=$$(sed -n 's/^conversed: gateway on \(.*\) (.*$$/\1/p' $$tmp/conversed2.log); \
		[ -n "$$up" ] && break; sleep 0.1; \
	done; \
	if [ -z "$$up" ]; then \
		echo 'FAIL: restarted conversed never came up'; \
		cat $$tmp/conversed2.log; exit 1; \
	fi; \
	grep -q 'recovered journal' $$tmp/conversed2.log || \
		{ echo 'FAIL: restart did not replay the journal'; cat $$tmp/conversed2.log; exit 1; }; \
	$$tmp/converserun -daemon $$addr -token smoke -np 2 -timeout 60s pingpong '{"iters":200,"bytes":128}' || \
		{ echo 'FAIL: post-recovery submit failed'; cat $$tmp/conversed2.log; exit 1; }; \
	$$tmp/conversetop -connect $$addr -token smoke -jobs -once > $$tmp/jobs.out || exit 1; \
	grep -q 'epoch 2' $$tmp/jobs.out && \
	grep -q 'jacobi.*done' $$tmp/jobs.out && \
	grep -q 'deadline-killed' $$tmp/jobs.out && \
	grep -q 'pingpong.*done' $$tmp/jobs.out || \
		{ echo 'FAIL: recovered job table missing expected rows'; cat $$tmp/jobs.out; exit 1; }; \
	echo 'chaos-service-smoke: chaos soak + journal kill/restart/deadline e2e ok'

# Warm-service vs per-job cold-launch throughput and completion
# latency; writes BENCH_jobs.json (the table EXPERIMENTS.md quotes).
bench-jobs:
	$(GO) run ./cmd/commbench -jobs -o BENCH_jobs.json

# The 8..256-PE scale ladder on the simulated substrate, with CPU and
# heap captures pulled through a live ccs monitor socket at every
# point; writes BENCH_scale.json (the table EXPERIMENTS.md quotes).
# The collectives sweep rides along so one `make profile` refreshes
# both scaling artifacts.
profile: bench-collectives
	$(GO) run ./cmd/commbench -scale -o BENCH_scale.json
