//go:build !msgcheck && !race

package service

// Workload sizing for the crash-tolerance tests on the normal build.
// The "long" gangs must still be running after a gateway hard-stop,
// journal restart, and daemon re-register (a second or two of
// reconciliation); the "held" gang must additionally outlive a drain
// window. The chaos burst must stay in flight across a daemon kill, a
// gateway crash/restart, and a daemon drain, yet clear the budget.
const (
	recLongIters = 300000
	recHeldIters = 5000000

	chaosPPIters     = 40000
	chaosPPItersStep = 10000
	chaosJacobiN     = 48
	chaosJacobiIters = 40
	chaosJacobiStep  = 20
)
