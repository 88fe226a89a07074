// Client mode: swiftsim -submit <addr> bursts generated jobs at a running
// swiftd and reports the admission decisions, exercising the flow
// controller's accept/queue/shed ladder from outside the process.
package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"swift/internal/rpc"
	"swift/internal/trace"
)

// runSubmit generates jobs jobs from seed, submits them all at once to the
// swiftd at addr (labelled with tenant when non-empty), prints the decision
// tally, and (with -drain) asks the server to drain and waits until
// everything admitted has finished.
func runSubmit(addr string, jobs int, seed int64, tenant string, drain bool) int {
	fc, err := rpc.DialFlow(addr, 5*time.Second)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swiftsim: dial %s: %v\n", addr, err)
		return 1
	}
	defer fc.Close()

	tr := trace.Generate(trace.Spec{Jobs: jobs, Seed: seed})
	for _, j := range tr.Jobs {
		j.Job.Tenant = tenant
		if tenant != "" {
			// Prefix IDs so concurrent same-seed clients for different
			// tenants do not collide in the server's dedup map.
			j.Job.ID = tenant + "-" + j.Job.ID
		}
	}
	var admitted, queued, shed, failed int
	for _, j := range tr.Jobs {
		var buf bytes.Buffer
		one := &trace.Trace{Jobs: []trace.Job{j}}
		if err := one.Write(&buf); err != nil {
			fmt.Fprintf(os.Stderr, "swiftsim: encode %s: %v\n", j.Job.ID, err)
			return 1
		}
		rep, err := fc.Submit(j.Job.ID, buf.Bytes())
		if err != nil {
			fmt.Fprintf(os.Stderr, "swiftsim: submit %s: %v\n", j.Job.ID, err)
			failed++
			continue
		}
		switch rep.Decision {
		case "admitted":
			admitted++
		case "queued":
			queued++
		case "shed":
			shed++
		case "":
			fmt.Fprintf(os.Stderr, "swiftsim: submit %s rejected: %s\n", j.Job.ID, rep.Reason)
			failed++
		default:
			fmt.Fprintf(os.Stderr, "swiftsim: submit %s: unknown decision %q (%s)\n", j.Job.ID, rep.Decision, rep.Reason)
			failed++
		}
	}
	fmt.Printf("submitted=%d admitted=%d queued=%d shed=%d failed=%d\n",
		len(tr.Jobs), admitted, queued, shed, failed)

	if st, err := fc.Status(); err == nil {
		fmt.Printf("server: admitted=%d queued=%d shed=%d inflight=%d/%d level=%s\n",
			st.Admitted, st.Queued, st.Shed,
			st.PendingTasks+st.RunningTasks, st.TotalExecutors, st.Level)
		for _, t := range st.Tenants {
			budget := "unbounded"
			if t.Budget > 0 {
				budget = fmt.Sprintf("%d", t.Budget)
			}
			fmt.Printf("tenant %s: admitted=%d queued=%d shed=%d waitq=%d inflight=%d budget=%s\n",
				t.Tenant, t.Admitted, t.Queued, t.Shed, t.QueueLen, t.InFlight, budget)
		}
	} else {
		fmt.Fprintf(os.Stderr, "swiftsim: status: %v\n", err)
	}

	if drain {
		if err := fc.Drain(); err != nil {
			fmt.Fprintf(os.Stderr, "swiftsim: drain: %v\n", err)
			return 1
		}
		// Poll until the server empties or exits. A connection error after
		// a drain request means the server finished and shut down — that is
		// the clean outcome, not a failure.
		for {
			time.Sleep(100 * time.Millisecond)
			st, err := fc.Status()
			if err != nil {
				fmt.Println("drain: server exited")
				return 0
			}
			if st.LiveJobs == 0 && st.FlowQueueLen == 0 {
				fmt.Println("drain: server idle")
				return 0
			}
		}
	}
	return 0
}
