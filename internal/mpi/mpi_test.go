package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"evogame/internal/faults"
)

func TestRunValidation(t *testing.T) {
	if err := Run(0, func(c *Comm) error { return nil }); err == nil {
		t.Fatal("Run accepted size 0")
	}
	if err := Run(-3, func(c *Comm) error { return nil }); err == nil {
		t.Fatal("Run accepted a negative size")
	}
	if err := Run(2, nil); err == nil {
		t.Fatal("Run accepted a nil function")
	}
}

func TestRunRankAndSize(t *testing.T) {
	const size = 7
	var mu sync.Mutex
	seen := map[int]bool{}
	err := Run(size, func(c *Comm) error {
		if c.Size() != size {
			return fmt.Errorf("size = %d", c.Size())
		}
		mu.Lock()
		defer mu.Unlock()
		if seen[c.Rank()] {
			return fmt.Errorf("rank %d launched twice", c.Rank())
		}
		seen[c.Rank()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != size {
		t.Fatalf("launched %d distinct ranks, want %d", len(seen), size)
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	wantErr := errors.New("boom")
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 2 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("Run returned %v, want the rank error", err)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("bad rank")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic in a rank was not reported")
	}
}

func TestSendRecvBasic(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 5, []byte("hello"))
		}
		data, err := c.Recv(0, 5)
		if err != nil {
			return err
		}
		if string(data) != "hello" {
			return fmt.Errorf("received %q", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvOrderingPerPair(t *testing.T) {
	const n = 100
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 1, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			data, err := c.Recv(0, 1)
			if err != nil {
				return err
			}
			if data[0] != byte(i) {
				return fmt.Errorf("message %d arrived out of order (got %d)", i, data[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMailboxBacklogKeepsOrder drives one mailbox through a standing
// backlog with takes from the head and from mid-queue, and with puts that
// land while the consumed prefix is reclaimed: every (src, tag) stream
// must still arrive in send order, and the drained mailbox must hold
// nothing.
func TestMailboxBacklogKeepsOrder(t *testing.T) {
	mb := newFabric(3, Options{}).mailboxes[0]
	type stream struct{ src, tag int }
	sent := map[stream]int{}
	got := map[stream]int{}
	live := map[int]int{} // queued messages per source
	check := func(msg message, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		k := stream{msg.src, msg.tag}
		if want := fmt.Sprint(got[k]); string(msg.data) != want {
			t.Fatalf("stream %+v: got message %q, want %q", k, msg.data, want)
		}
		got[k]++
		live[msg.src]--
	}
	for r := 0; r < 3000; r++ {
		k := stream{r % 3, r % 2}
		mb.put(message{src: k.src, tag: k.tag, data: []byte(fmt.Sprint(sent[k]))})
		sent[k]++
		live[k.src]++
		if r%3 == 2 && live[2] > 0 {
			check(mb.take(2, AnyTag)) // usually behind the head
		}
		if r%5 == 4 {
			check(mb.take(-1, AnyTag)) // always the head
		}
	}
	for live[0]+live[1]+live[2] > 0 {
		check(mb.take(-1, AnyTag))
	}
	for k, n := range sent {
		if got[k] != n {
			t.Errorf("stream %+v: received %d of %d messages", k, got[k], n)
		}
	}
	if len(mb.queue) != 0 || mb.head != 0 {
		t.Fatalf("drained mailbox holds len=%d head=%d", len(mb.queue), mb.head)
	}
}

func TestTagMatching(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 10, []byte("ten")); err != nil {
				return err
			}
			return c.Send(1, 20, []byte("twenty"))
		}
		// Receive the later tag first: the tag-10 message must stay queued.
		d20, err := c.Recv(0, 20)
		if err != nil {
			return err
		}
		d10, err := c.Recv(0, 10)
		if err != nil {
			return err
		}
		if string(d20) != "twenty" || string(d10) != "ten" {
			return fmt.Errorf("tag matching failed: %q %q", d20, d10)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnyTagReceive(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 42, []byte("x"))
		}
		data, err := c.Recv(0, AnyTag)
		if err != nil {
			return err
		}
		if string(data) != "x" {
			return fmt.Errorf("got %q", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendBufferReuseSafe(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []byte{1, 2, 3}
			if err := c.Send(1, 1, buf); err != nil {
				return err
			}
			buf[0] = 99 // mutate after send; receiver must still see 1,2,3
			return nil
		}
		data, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if !bytes.Equal(data, []byte{1, 2, 3}) {
			return fmt.Errorf("send did not copy the payload: %v", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidRanksAndTags(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if err := c.Send(5, 1, nil); !errors.Is(err, ErrInvalidRank) {
			return fmt.Errorf("Send to invalid rank: %v", err)
		}
		if err := c.Send(-1, 1, nil); !errors.Is(err, ErrInvalidRank) {
			return fmt.Errorf("Send to negative rank: %v", err)
		}
		if err := c.Send(0, -5, nil); !errors.Is(err, ErrInvalidTag) {
			return fmt.Errorf("Send with negative tag: %v", err)
		}
		if err := c.Send(0, reservedTagBase, nil); !errors.Is(err, ErrInvalidTag) {
			return fmt.Errorf("Send with reserved tag: %v", err)
		}
		if _, err := c.Recv(9, 1); !errors.Is(err, ErrInvalidRank) {
			return fmt.Errorf("Recv from invalid rank: %v", err)
		}
		if _, err := c.Recv(-1, 1); !errors.Is(err, ErrInvalidRank) {
			return fmt.Errorf("Recv from negative rank: %v", err)
		}
		if _, err := c.Recv(0, reservedTagBase+7); !errors.Is(err, ErrInvalidTag) {
			return fmt.Errorf("Recv with reserved tag: %v", err)
		}
		if _, err := c.Bcast(17, nil); !errors.Is(err, ErrInvalidRank) {
			return fmt.Errorf("Bcast with invalid root: %v", err)
		}
		if _, err := c.Reduce(0, 1, nil); err == nil {
			return errors.New("Reduce accepted a nil operator")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendIrecv(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			req := c.Isend(1, 3, []byte("async"))
			_, err := req.Wait()
			return err
		}
		req := c.Irecv(0, 3)
		data, err := req.Wait()
		if err != nil {
			return err
		}
		if string(data) != "async" {
			return fmt.Errorf("got %q", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastDeliversToAllRanks(t *testing.T) {
	const size = 9
	payload := []byte("strategy-table-update")
	results, err := RunCollect(size, func(c *Comm) ([]byte, error) {
		if c.Rank() == 3 {
			return c.Bcast(3, payload)
		}
		return c.Bcast(3, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, got := range results {
		if !bytes.Equal(got, payload) {
			t.Fatalf("rank %d received %q", r, got)
		}
	}
}

func TestGather(t *testing.T) {
	const size = 6
	err := Run(size, func(c *Comm) error {
		data := []byte{byte(c.Rank() * 10)}
		got, err := c.Gather(2, data)
		if err != nil {
			return err
		}
		if c.Rank() != 2 {
			if got != nil {
				return fmt.Errorf("non-root rank %d received gather data", c.Rank())
			}
			return nil
		}
		if len(got) != size {
			return fmt.Errorf("root gathered %d entries", len(got))
		}
		for r, payload := range got {
			if len(payload) != 1 || payload[0] != byte(r*10) {
				return fmt.Errorf("rank %d contribution = %v", r, payload)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierEstablishesOrdering(t *testing.T) {
	// Every rank increments a counter before the barrier; after the barrier
	// every rank must observe the full count.  Run several rounds to give a
	// broken barrier a chance to interleave.
	const size = 8
	const rounds = 20
	var counter [rounds]int64
	var mu sync.Mutex
	err := Run(size, func(c *Comm) error {
		for round := 0; round < rounds; round++ {
			mu.Lock()
			counter[round]++
			mu.Unlock()
			if err := c.Barrier(); err != nil {
				return err
			}
			mu.Lock()
			v := counter[round]
			mu.Unlock()
			if v != size {
				return fmt.Errorf("round %d: rank %d observed %d increments after the barrier", round, c.Rank(), v)
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceSum(t *testing.T) {
	const size = 5
	err := Run(size, func(c *Comm) error {
		v, err := c.Reduce(0, float64(c.Rank()+1), OpSum)
		if err != nil {
			return err
		}
		if c.Rank() == 0 && v != 15 {
			return fmt.Errorf("reduce sum = %v, want 15", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	const size = 6
	err := Run(size, func(c *Comm) error {
		max, err := c.Allreduce(float64(c.Rank()), OpMax)
		if err != nil {
			return err
		}
		if max != float64(size-1) {
			return fmt.Errorf("allreduce max = %v on rank %d", max, c.Rank())
		}
		min, err := c.Allreduce(float64(c.Rank()), OpMin)
		if err != nil {
			return err
		}
		if min != 0 {
			return fmt.Errorf("allreduce min = %v on rank %d", min, c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherFloat64(t *testing.T) {
	const size = 5
	err := Run(size, func(c *Comm) error {
		vec, err := c.AllgatherFloat64(float64(c.Rank()) * 2)
		if err != nil {
			return err
		}
		if len(vec) != size {
			return fmt.Errorf("allgather length %d", len(vec))
		}
		for r, v := range vec {
			if v != float64(r)*2 {
				return fmt.Errorf("rank %d entry %d = %v", c.Rank(), r, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounters(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, make([]byte, 100)); err != nil {
				return err
			}
			st := c.Stats()
			if st.SendCount != 1 || st.BytesSent != 100 {
				return fmt.Errorf("sender stats %+v", st)
			}
			return nil
		}
		if _, err := c.Recv(0, 1); err != nil {
			return err
		}
		st := c.Stats()
		if st.RecvCount != 1 || st.BytesRecv != 100 {
			return fmt.Errorf("receiver stats %+v", st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveStatsCount(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if _, err := c.Bcast(0, []byte("x")); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Stats().Collectives != 2 {
			return fmt.Errorf("collective count = %d", c.Stats().Collectives)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunCollect(t *testing.T) {
	vals, err := RunCollect(4, func(c *Comm) (int, error) {
		return c.Rank() * c.Rank(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range vals {
		if v != r*r {
			t.Fatalf("rank %d collected %d", r, v)
		}
	}
}

func TestManyToOneFitnessReturnPattern(t *testing.T) {
	// Reproduces the paper's pairwise-comparison exchange: rank 0 (Nature)
	// broadcasts a pair of selected SSets, the owning ranks send their
	// fitness back point-to-point, and rank 0 broadcasts the update.
	const size = 16
	err := Run(size, func(c *Comm) error {
		const tagFitness = 7
		selected := []byte{3, 11}
		pair, err := c.Bcast(0, selected)
		if err != nil {
			return err
		}
		if c.Rank() == int(pair[0]) || c.Rank() == int(pair[1]) {
			if err := c.Send(0, tagFitness, encodeFloat64(float64(c.Rank())*100)); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			got := map[int]float64{}
			for i := 0; i < 2; i++ {
				data, src, err := c.recv(-1, tagFitness)
				if err != nil {
					return err
				}
				v, err := decodeFloat64(data)
				if err != nil {
					return err
				}
				got[src] = v
			}
			if got[3] != 300 || got[11] != 1100 {
				return fmt.Errorf("fitness returns wrong: %v", got)
			}
		}
		// Everyone syncs on the resulting update.
		if _, err := c.Bcast(0, []byte("update")); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: float64 encode/decode round-trips.
func TestQuickFloatRoundTrip(t *testing.T) {
	f := func(v float64) bool {
		got, err := decodeFloat64(encodeFloat64(v))
		if err != nil {
			return false
		}
		return got == v || (v != v && got != got) // NaN compares unequal
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Bcast delivers identical bytes to every rank for arbitrary
// payloads and communicator sizes.
func TestQuickBcastIdentical(t *testing.T) {
	f := func(payload []byte, sizeSel uint8) bool {
		size := int(sizeSel%6) + 2
		results, err := RunCollect(size, func(c *Comm) ([]byte, error) {
			if c.Rank() == 0 {
				return c.Bcast(0, payload)
			}
			return c.Bcast(0, nil)
		})
		if err != nil {
			return false
		}
		for _, r := range results {
			if !bytes.Equal(r, payload) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSendRecvSmall times a 64-byte point-to-point message.  The
// injector=armed-idle case installs a fault plan whose one crash sits far
// past any epoch the benchmark reaches, so every send consults the
// injector's Delay and Drop hooks but nothing ever fires: the difference
// from injector=nil is the cost of running with fault injection armed.
func BenchmarkSendRecvSmall(b *testing.B) {
	for _, bc := range []struct {
		name string
		opts func() Options
	}{
		{"injector=nil", func() Options { return Options{} }},
		{"injector=armed-idle", func() Options {
			return Options{Injector: faults.NewPlan(faults.Event{Kind: faults.Crash, Gen: 1 << 30, Rank: 1})}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			err := RunWithOptions(2, bc.opts(), func(c *Comm) error {
				payload := make([]byte, 64)
				if c.Rank() == 0 {
					for i := 0; i < b.N; i++ {
						if err := c.Send(1, 1, payload); err != nil {
							return err
						}
					}
					return nil
				}
				for i := 0; i < b.N; i++ {
					if _, err := c.Recv(0, 1); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkBcast16Ranks(b *testing.B) {
	payload := make([]byte, 512)
	b.ReportAllocs()
	err := Run(16, func(c *Comm) error {
		for i := 0; i < b.N; i++ {
			var err error
			if c.Rank() == 0 {
				_, err = c.Bcast(0, payload)
			} else {
				_, err = c.Bcast(0, nil)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
