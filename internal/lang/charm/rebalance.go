package charm

import (
	"encoding/binary"
	"fmt"
)

// Quasi-dynamic load balancing, the second extended situation of the
// paper's §3.3.1 footnote: "after a phase or period of computation has
// completed, the load and communication patterns in that phase are
// analyzed, and a new global distribution of entities to processors is
// derived. After moving the entities to their new destinations ... the
// computation proceeds to the next stage." Built, as the paper says it
// can be, on top of Converse — here on top of the migration library.
//
// Rebalance is a collective call: every processor invokes it between
// phases (loosely synchronously). One core all-reduction of a per-processor
// chare count vector gives every processor the same counts, from which
// each derives the same evened-out plan and executes its own row; a
// Barrier then releases the collective.

// Rebalance migrates chares of the given type so that every processor
// ends up with an equal share (±1). All processors must call it, at the
// same point between computation phases; the type must have an Unpacker
// and its chares must implement Migratable. It returns the number of
// chares this processor shipped away.
func (rt *RT) Rebalance(typeID int) int {
	p := rt.p
	npes := p.NumPes()
	mine := make([]byte, 4*npes)
	binary.LittleEndian.PutUint32(mine[4*p.MyPe():], uint32(len(rt.LocalChares(typeID))))
	all := p.AllReduceTree(nil, rt.countSum, mine)
	counts := make([]int, npes)
	total := 0
	for pe := range counts {
		counts[pe] = int(binary.LittleEndian.Uint32(all[4*pe:]))
		total += counts[pe]
	}
	// Greedy matching of surpluses to deficits against the even
	// distribution, walked in PE order on every processor alike.
	target := func(pe int) int {
		if pe < total%npes {
			return total/npes + 1
		}
		return total / npes
	}
	var plan [][2]int // this processor's (dst, n) transfers
	for src, dst := 0, 0; src < npes; src++ {
		for surplus := counts[src] - target(src); surplus > 0; {
			for counts[dst] >= target(dst) {
				dst++
			}
			n := min(surplus, target(dst)-counts[dst])
			if src == p.MyPe() {
				plan = append(plan, [2]int{dst, n})
			}
			surplus -= n
			counts[dst] += n
		}
	}
	shipped := rt.executePlan(typeID, plan)
	p.Barrier()
	return shipped
}

// executePlan migrates n arbitrary local chares of the type to each
// destination in the plan.
func (rt *RT) executePlan(typeID int, plan [][2]int) int {
	shipped := 0
	local := rt.LocalChares(typeID)
	for _, pair := range plan {
		dst, n := pair[0], pair[1]
		for i := 0; i < n; i++ {
			if len(local) == 0 {
				panic(fmt.Sprintf("charm: pe %d: rebalance plan exceeds local chares", rt.p.MyPe()))
			}
			id := local[len(local)-1]
			local = local[:len(local)-1]
			rt.Migrate(typeID, id, dst)
			shipped++
		}
	}
	return shipped
}

// sumCounts is the count vector's combiner: slot-wise u32 addition.
func sumCounts(a, b []byte) []byte {
	for i := 0; i < len(a); i += 4 {
		binary.LittleEndian.PutUint32(a[i:], binary.LittleEndian.Uint32(a[i:])+binary.LittleEndian.Uint32(b[i:]))
	}
	return a
}
