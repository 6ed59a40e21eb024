package charm

// Group chares (Charm's "branch office chares"): an object with one
// branch on every processor, created collectively and invocable either
// on a single branch or on all branches at once. The original Charm
// runtime the paper retargets onto Converse has these as a primary
// abstraction; services like the paper's own load-balancing and
// quiescence modules are naturally branch-office-shaped.
//
// A group is a chare array with one element per processor: branch i is
// element i, which ArrayOwner places on processor i. Creation, parking
// of invocations that outrun it, replay and two-phase dispatch are
// therefore array.go's; this file only adapts the signatures.

// GroupID names a group chare; identical on every processor.
type GroupID uint32

// GroupCtor builds a processor's branch of a group.
type GroupCtor func(rt *RT, gid GroupID, msg []byte) any

// GroupEntry is an invocable method of a group branch.
type GroupEntry func(rt *RT, branch any, msg []byte)

// RegisterGroup adds a group chare type; like Register, call it in the
// same order on every processor. Group and array types share one id
// space.
func (rt *RT) RegisterGroup(ctor GroupCtor, eps ...GroupEntry) int {
	aeps := make([]ArrayEntry, len(eps))
	for i, ep := range eps {
		aeps[i] = func(rt *RT, branch any, _ int, msg []byte) { ep(rt, branch, msg) }
	}
	return rt.RegisterArray(func(rt *RT, aid ArrayID, _ int, msg []byte) any {
		return ctor(rt, GroupID(aid), msg)
	}, aeps...)
}

// CreateGroup creates a branch of the given group type on every
// processor and returns the new group's id. The caller's branch is
// constructed immediately, the others when the creation broadcast
// arrives; invocations sent after this call are safe (see CreateArray).
func (rt *RT) CreateGroup(typeID int, payload []byte) GroupID {
	return GroupID(rt.CreateArray(typeID, rt.p.NumPes(), payload))
}

// Branch returns this processor's branch of the group, or nil.
func (rt *RT) Branch(gid GroupID) any { return rt.Element(ArrayID(gid), rt.p.MyPe()) }

// SendBranch asynchronously invokes entry ep of the group's branch on
// processor pe.
func (rt *RT) SendBranch(gid GroupID, pe, ep int, data []byte) {
	rt.SendElem(ArrayID(gid), pe, ep, data)
}

// SendGroup asynchronously invokes entry ep on every branch of the
// group, including the local one. It loops rather than calling
// BroadcastArray, which needs the array known here: SendGroup works
// before the creation broadcast has landed locally.
func (rt *RT) SendGroup(gid GroupID, ep int, data []byte) {
	for pe := 0; pe < rt.p.NumPes(); pe++ {
		rt.SendBranch(gid, pe, ep, data)
	}
}
