package service

// A job rank's control link rides its daemon's session: each mnet
// control frame — hello, table, done, release, console, fail, monitor —
// crosses as one kCtrl frame whose payload is the mnet frame's payload,
// unchanged, behind an envelope naming the attempt's rank it belongs
// to. The gateway routes an arriving frame to that rank's
// mnet.RankLink, the daemon to that rank's hosted node; neither binds
// or dials anything per job.

import (
	"encoding/binary"
	"fmt"
)

// ctrlEnv addresses one control frame on a daemon session. On the
// wire a kCtrl payload is
//
//	[u8 mnet kind][u32 LE attempt][u32 LE rank][u32 LE len][job id]
//
// followed by the mnet frame's payload.
type ctrlEnv struct {
	kind    byte
	attempt int
	rank    int
	job     string
}

// ctrlHeadMin is the envelope's length before the job id.
const ctrlHeadMin = 13

// head encodes the envelope.
func (e ctrlEnv) head() []byte {
	b := make([]byte, 0, ctrlHeadMin+len(e.job))
	b = append(b, e.kind)
	b = binary.LittleEndian.AppendUint32(b, uint32(e.attempt))
	b = binary.LittleEndian.AppendUint32(b, uint32(e.rank))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(e.job)))
	return append(b, e.job...)
}

// decodeCtrl splits a kCtrl payload into its envelope and the mnet
// frame's payload (a subslice of p).
func decodeCtrl(p []byte) (ctrlEnv, []byte, error) {
	if len(p) < ctrlHeadMin {
		return ctrlEnv{}, nil, fmt.Errorf("service: control frame of %d bytes, shorter than its envelope", len(p))
	}
	n := binary.LittleEndian.Uint32(p[9:])
	if uint64(len(p)) < ctrlHeadMin+uint64(n) {
		return ctrlEnv{}, nil, fmt.Errorf("service: control frame of %d bytes names a %d-byte job id", len(p), n)
	}
	e := ctrlEnv{
		kind:    p[0],
		attempt: int(binary.LittleEndian.Uint32(p[1:])),
		rank:    int(binary.LittleEndian.Uint32(p[5:])),
		job:     string(p[ctrlHeadMin : ctrlHeadMin+int(n)]),
	}
	return e, p[ctrlHeadMin+int(n):], nil
}
