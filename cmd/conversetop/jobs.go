package main

// The -jobs view: instead of polling a mesh monitor, conversetop
// polls a conversed gateway and renders the cluster's job table —
// per-job state, gang size, queue wait, runtime, and bytes moved —
// plus the daemon roster and admission backlog.

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"converse/service"
)

// runJobs renders the conversed job table, refreshing in place unless
// once is set. Returns the process exit code.
func runJobs(addr, token string, interval time.Duration, once, asJSON bool) int {
	c := &service.Client{Addr: addr, Token: token}
	for {
		jobs, err := c.Jobs()
		if err != nil {
			fmt.Fprintf(os.Stderr, "conversetop: %v\n", err)
			return 1
		}
		cl, err := c.ClusterInfo()
		if err != nil {
			fmt.Fprintf(os.Stderr, "conversetop: %v\n", err)
			return 1
		}
		if asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			enc.Encode(struct {
				service.ClusterView
				Jobs []service.JobInfo `json:"jobs"`
			}{cl, jobs})
		} else {
			if !once {
				fmt.Print("\x1b[H\x1b[2J")
			}
			renderJobs(jobs, cl)
		}
		if once {
			return 0
		}
		time.Sleep(interval)
	}
}

// renderJobs prints the daemon roster line and the job table.
func renderJobs(jobs []service.JobInfo, cl service.ClusterView) {
	slots, busy := 0, 0
	names := make([]string, 0, len(cl.Daemons))
	for _, d := range cl.Daemons {
		slots += d.Slots
		busy += d.Busy
		tag := ""
		if d.Draining {
			tag = " draining"
		}
		names = append(names, fmt.Sprintf("%s %d/%d%s", d.Name, d.Busy, d.Slots, tag))
	}
	mode := ""
	if cl.Recovering {
		mode = ", RECOVERING"
	}
	fmt.Printf("conversed: epoch %d%s, %d daemons (%s), %d/%d PEs busy, backlog %d/%d  (%s)\n\n",
		cl.Epoch, mode, len(cl.Daemons), strings.Join(names, ", "), busy, slots,
		cl.Backlog, cl.BacklogCap, time.Now().Format("15:04:05"))
	fmt.Printf("%-22s %-10s %-10s %4s %9s %9s %9s %3s %-18s %-9s %-23s %s\n",
		"JOB", "WORKLOAD", "STATE", "GANG", "QWAIT", "RUNTIME", "BYTES", "RQ", "REASON", "LIMITS",
		"RDV/MESH/RUN/FIN(ms)", "DAEMONS")
	for _, j := range jobs {
		line := fmt.Sprintf("%-22s %-10s %-10s %4d %9s %9s %9s %3d %-18s %-9s %-23s %s",
			j.ID, j.Workload, j.State, j.Gang,
			fmtMs(j.QueueWaitMS), fmtMs(j.RuntimeMS), fmtBytes(j.BytesMoved),
			j.Requeues, dash(j.Reason), fmtLimits(j), fmtStages(j.Stages), strings.Join(j.Daemons, ","))
		if j.Error != "" {
			line += "  [" + j.Error + "]"
		}
		fmt.Println(line)
	}
}

// dash renders an empty field as "-" so the table stays scannable.
func dash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// fmtStages compacts a job's stage times — rendezvous, mesh-up, driver,
// finish of its slowest rank — into one cell of milliseconds, e.g.
// "0.21/0.08/0.55/0.04".
func fmtStages(st *service.JobStages) string {
	if st == nil {
		return "-"
	}
	cell := func(ms float64) string {
		if ms < 10 {
			return fmt.Sprintf("%.2f", ms)
		}
		return fmt.Sprintf("%.0f", ms)
	}
	return cell(st.RendezvousMS) + "/" + cell(st.MeshUpMS) + "/" + cell(st.DriverMS) + "/" + cell(st.FinishMS)
}

// fmtLimits compacts a job's resource limits into one cell, e.g.
// "2s/64M" for a 2-second deadline with a 64 MiB heap ceiling.
func fmtLimits(j service.JobInfo) string {
	dl, mm := "-", "-"
	if j.DeadlineMS > 0 {
		dl = fmtMs(j.DeadlineMS)
	}
	if j.MaxMemMB > 0 {
		mm = fmt.Sprintf("%dM", j.MaxMemMB)
	}
	if dl == "-" && mm == "-" {
		return "-"
	}
	return dl + "/" + mm
}

func fmtMs(ms float64) string {
	switch {
	case ms <= 0:
		return "-"
	case ms >= 60_000:
		return fmt.Sprintf("%.1fm", ms/60_000)
	case ms >= 1000:
		return fmt.Sprintf("%.1fs", ms/1000)
	}
	return fmt.Sprintf("%.0fms", ms)
}
