package cluster

import (
	"context"
	"fmt"
	"time"

	"repro/internal/sockets"
)

// answer is one replica's outcome in a quorum fan-out.
type answer struct {
	node  *node
	raw   string // a read's stored bytes
	found bool   // a read found some version (value or tombstone)
	err   error
}

// fanout is one quorum round: a SETV of the stamped bytes enc to every
// replica of key (a write), or a GET of key from every replica (a read,
// enc empty). The replicas answer in whatever order they finish, and
// the round's caller consumes them with next until it has its quorum.
//
// The first attempts go out as Pool futures that settle on one channel,
// so the healthy path starts no goroutine per replica. One timer (the
// pool timeout, capped by the caller's deadline) and ctx bound the wait.
// A replica leaves that path for the synchronous one, on a goroutine of
// its own, when its first attempt fails or the timer fires first: a
// write goes through writeReplica (retries, then a hinted handoff), a
// read through the Pool's own retries. Either continues the same
// request from attempt 2, so MaxAttempts still bounds the wire attempts
// per replica copy. A write to a replica known down goes straight to
// writeReplica's hint; a read skips that replica.
type fanout struct {
	c         *Cluster
	ctx       context.Context
	key, enc  string
	fallbacks []*node // a write's hint holders

	replicas []*node
	firsts   []firstTry // by replica
	replies  chan sockets.Reply
	timer    *time.Timer
	timeout  time.Duration
	pending  int // replicas that have not answered

	// The synchronous paths, made on first use: their answers, and the
	// context that stop cancels so they give up once the round is over.
	slow       chan answer
	slowCtx    context.Context
	cancelSlow context.CancelFunc
}

// firstTry is a replica's first attempt; live while its Reply may still
// settle on the round's replies channel.
type firstTry struct {
	call sockets.Call
	live bool
}

// startFanout sends the round's first attempts and arms its timer. The
// caller must stop the round when it is done with it.
func (c *Cluster) startFanout(ctx context.Context, key, enc string, replicas, fallbacks []*node) *fanout {
	n := len(replicas)
	fo := &fanout{
		c: c, ctx: ctx, key: key, enc: enc, fallbacks: fallbacks,
		replicas: replicas,
		firsts:   make([]firstTry, n),
		replies:  make(chan sockets.Reply, n),
		timeout:  c.cfg.PoolTimeout,
		pending:  n,
	}
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < fo.timeout {
			fo.timeout = rem
		}
	}
	for i, r := range replicas {
		switch {
		case r.down.Load() && enc == "":
			fo.pending-- // nothing to read on a replica known down
		case r.down.Load():
			fo.goSlow(i, sockets.Call{}, sockets.Reply{}, true)
		case enc == "":
			fo.firsts[i] = firstTry{r.client().GoGet(ctx, key, i, fo.replies), true}
		default:
			fo.firsts[i] = firstTry{r.client().GoSetV(ctx, key, enc, i, fo.replies), true}
		}
	}
	fo.timer = time.NewTimer(fo.timeout)
	return fo
}

// next returns the next replica's answer, or ctx's error once the
// caller's context is done. Call it only while pending > 0.
func (fo *fanout) next() (answer, error) {
	for {
		select {
		case r := <-fo.replies:
			i := r.Tag
			if !fo.firsts[i].live {
				continue // settled as the timer expired it: the retry answers
			}
			fo.firsts[i].live = false
			a := fo.decode(i, r)
			if a.err != nil {
				fo.goSlow(i, fo.firsts[i].call, r, false)
				continue
			}
			fo.pending--
			return a, nil
		case a := <-fo.slow:
			fo.pending--
			return a, nil
		case <-fo.timer.C:
			for i, f := range fo.firsts {
				if f.live {
					fo.firsts[i].live = false
					fo.goSlow(i, f.call, f.call.Expire(fo.timeout), false)
				}
			}
		case <-fo.ctx.Done():
			return answer{}, fo.ctx.Err()
		}
	}
}

// decode turns a Reply from replica i into its answer.
func (fo *fanout) decode(i int, r sockets.Reply) answer {
	a := answer{node: fo.replicas[i]}
	if fo.enc != "" {
		_, a.err = r.SetV()
	} else {
		a.raw, a.found, a.err = r.Get()
	}
	return a
}

// goSlow finishes replica i on the synchronous path, on a goroutine:
// call is its first attempt and first that attempt's Reply. A write to
// a replica known down has neither and goes straight to a hint.
func (fo *fanout) goSlow(i int, call sockets.Call, first sockets.Reply, down bool) {
	if fo.slow == nil {
		fo.slow = make(chan answer, len(fo.replicas))
		fo.slowCtx, fo.cancelSlow = context.WithCancel(fo.ctx)
	}
	ctx, out := fo.slowCtx, fo.slow
	go func() {
		if fo.enc == "" {
			out <- fo.decode(i, call.Retry(ctx, first))
			return
		}
		var direct func() error
		if !down {
			direct = func() error { return fo.decode(i, call.Retry(ctx, first)).err }
		}
		target := fo.replicas[i]
		a := answer{node: target}
		if !fo.c.writeReplica(ctx, fo.key, fo.enc, target, fo.fallbacks, direct) {
			a.err = fmt.Errorf("cluster: no copy of %q landed for %s", fo.key, target.name)
		}
		out <- a
	}()
}

// stop ends the round: first attempts still in flight are abandoned
// (their replies, if any come, are dropped), and the synchronous paths
// still running give up.
func (fo *fanout) stop() {
	for _, f := range fo.firsts {
		if f.live {
			f.call.Abandon()
		}
	}
	fo.timer.Stop()
	if fo.cancelSlow != nil {
		fo.cancelSlow()
	}
}
