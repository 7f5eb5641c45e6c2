package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
)

// recordDigests computes the answer digests at the paper and the smoke
// budget, each on a fresh daemon — the cold matrix, both cold studies, and
// every cell's /v1/run — and prints the new digests.json. It is how
// digests.json is produced; the digests must only change when the
// simulator's output is meant to change.
func recordDigests(o options) error {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	base, err := os.MkdirTemp(o.workdir, "digests-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)
	all := map[string]map[string]string{}
	for _, b := range []budget{paperBudget, smokeBudget} {
		o.budget = b
		got, err := answerDigests(&env{o: o, w: &workloadSpec{name: "digests"}, base: base, ck: newChecker(nil), cl: newClient()})
		if err != nil {
			return fmt.Errorf("%s: %w", b, err)
		}
		all[b.String()] = got
	}
	out, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// answerDigests returns the digest of every answer at e's budget, keyed
// by request.
func answerDigests(e *env) (map[string]string, error) {
	defer e.cl.tr.CloseIdleConnections()
	dep, _, err := e.deploy(nil)
	if err != nil {
		return nil, err
	}
	ops := []op{matrixOp(e.o.budget), smtOp(e.o.budget), vpredOp(e.o.budget)}
	for _, c := range cells() {
		ops = append(ops, runOp(c, e.o.budget))
	}
	got := map[string]string{}
	ctx := context.Background()
	for _, op := range ops {
		status, body, _, err := e.cl.do(ctx, dep.front.url, op)
		if !e.ck.judge(op, status, body, err) {
			_ = dep.close()
			return nil, fmt.Errorf("%s", e.ck.problems[0])
		}
		got[op.key] = digest(body)
	}
	return got, dep.close()
}
