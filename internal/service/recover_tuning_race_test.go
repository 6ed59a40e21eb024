//go:build race && !msgcheck

package service

// Crash-tolerance test sizing under the race detector, which runs the
// pingpong workload 3-5x slower than the normal build. The "long" gang
// is cut so an adopted gang finishes well inside JobWatchdog (60 s):
// at the normal build's size it ran 35-55 s under -race, and past the
// watchdog the job fails, which the re-adoption test does not expect.
// It still outlasts the hard-stop, restart and re-register it must
// survive by several seconds. The other sizes match the normal build.
const (
	recLongIters = 60000
	recHeldIters = 5000000

	chaosPPIters     = 40000
	chaosPPItersStep = 10000
	chaosJacobiN     = 48
	chaosJacobiIters = 40
	chaosJacobiStep  = 20
)
