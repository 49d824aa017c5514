package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"tempo"
	"tempo/internal/scenario"
	"tempo/internal/service"
)

// verifyReports checks every cluster's final report against the same spec
// run sequentially in process, byte for byte. It uses every CPU: tempod is
// idle or gone by now.
func verifyReports(cs []*cluster, reports [][]byte) []string {
	var mu sync.Mutex
	var bad []string
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				msg := verifyReport(cs[i], reports[i])
				if msg != "" {
					mu.Lock()
					bad = append(bad, msg)
					mu.Unlock()
				}
			}
		}()
	}
	for i := range cs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return bad
}

func verifyReport(c *cluster, got []byte) string {
	rep, err := scenario.Run(c.spec, scenario.Options{Parallelism: 1})
	if err != nil {
		return fmt.Sprintf("%s: sequential run: %v", c.id, err)
	}
	want, err := rep.MarshalCanonical()
	if err != nil {
		return fmt.Sprintf("%s: %v", c.id, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Sprintf("%s: report differs from the sequential scenario.Run", c.id)
	}
	return ""
}

// verifySamples replays each sampled cluster on a local tempo.Session and
// checks that every kept read response is byte-identical to the one the
// local session gives at the same tick.
func verifySamples(cs []*cluster, run *phaseRun, sampled func(ci int) bool) []string {
	type kept struct {
		req  *request
		body []byte
	}
	byCluster := map[int][]kept{}
	for ui := range run.units {
		u := &run.units[ui]
		for j := range u.reqs {
			if b := run.res[u.first+j].body; b != nil && sampled(u.cluster) {
				byCluster[u.cluster] = append(byCluster[u.cluster], kept{&u.reqs[j], b})
			}
		}
	}
	var bad []string
	for ci, ks := range byCluster {
		sess, err := tempo.NewSession(cs[ci].spec, tempo.ScenarioOptions{Parallelism: 1})
		if err != nil {
			return append(bad, fmt.Sprintf("%s: local session: %v", cs[ci].id, err))
		}
		for _, k := range ks {
			for sess.Ticks() <= k.req.round {
				if _, err := sess.Tick(); err != nil {
					return append(bad, fmt.Sprintf("%s: local tick: %v", cs[ci].id, err))
				}
			}
			want, err := localResponse(sess, cs[ci], k.req)
			if err != nil {
				bad = append(bad, fmt.Sprintf("%s: local %s: %v", cs[ci].id, k.req.kind, err))
				continue
			}
			if !bytes.Equal(k.body, want) {
				bad = append(bad, fmt.Sprintf("%s round %d: %s response differs from a local session", cs[ci].id, k.req.round, k.req.kind))
			}
		}
	}
	return bad
}

// localResponse computes the body tempod sends for a read request from a
// local session, encoded exactly as tempod's handlers encode it.
func localResponse(sess *tempo.Session, c *cluster, r *request) ([]byte, error) {
	switch r.kind {
	case kQSAll, kQSFull, kQSSub:
		from, to := qsWindow(r.kind, sess.Interval(), r.round)
		wins, err := sess.QS(from, to)
		if err != nil {
			return nil, err
		}
		resp := service.QSResponse{Objectives: sess.Objectives(), Windows: []service.QSWindow{}}
		for _, w := range wins {
			resp.Windows = append(resp.Windows, service.QSWindow{
				Iteration: w.Iteration, From: w.From.String(), To: w.To.String(), Values: w.Values,
			})
		}
		return encodeJSON(resp)
	case kQuery:
		plan, err := tempo.ParseQueryPlan(strings.NewReader(queryPlan))
		if err != nil {
			return nil, err
		}
		res, err := sess.Query(plan)
		if err != nil {
			return nil, err
		}
		return encodeJSON(res)
	case kReport:
		return sess.Report().MarshalCanonical()
	case kWhatIf:
		cfgs, err := whatIfConfigs(c, r.body)
		if err != nil {
			return nil, err
		}
		rows, err := sess.WhatIf(cfgs)
		if err != nil {
			return nil, err
		}
		return encodeJSON(service.WhatIfResponse{Objectives: sess.Objectives(), Results: rows})
	}
	return nil, fmt.Errorf("no local form for %s", r.kind)
}

// encodeJSON encodes v as tempod's handlers do: indented, one trailing
// newline.
func encodeJSON(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return b.Bytes(), err
}
