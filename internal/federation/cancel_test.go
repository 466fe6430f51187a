package federation

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cellspot/internal/obs"
	"cellspot/internal/snapshot"
)

// stallTransport holds every attempt open until its request context ends,
// either before answering or while the response body is read, and ticks
// started each time it begins to stall. started needs room for every
// attempt of a run, since only the first tick is read.
type stallTransport struct {
	inBody  bool
	started chan struct{}
}

func (tr stallTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	io.Copy(io.Discard, req.Body)
	req.Body.Close()
	body := stallBody{ctx: req.Context(), started: tr.started}
	if !tr.inBody {
		_, err := body.Read(nil)
		return nil, err
	}
	return &http.Response{StatusCode: http.StatusOK, Header: make(http.Header), Body: body}, nil
}

type stallBody struct {
	ctx     context.Context
	started chan struct{}
}

func (b stallBody) Read([]byte) (int, error) {
	b.started <- struct{}{}
	<-b.ctx.Done()
	return 0, b.ctx.Err()
}

func (stallBody) Close() error { return nil }

func stallShipper(t *testing.T, tr stallTransport, shipTimeout time.Duration, attempts int) (*Shipper, *obs.Registry) {
	t.Helper()
	spool := t.TempDir()
	writeSpool(t, spool, genRecords(50, 17000, 4), 0, false)
	reg := obs.NewRegistry()
	s, err := NewShipper(ShipperConfig{
		SpoolDir:    spool,
		CollectorID: "c1",
		Target:      "http://aggregator",
		ShipTimeout: shipTimeout,
		MinShipRate: 1 << 30, // transfer component ~0: the floor governs
		MaxAttempts: attempts,
		RetryBase:   time.Millisecond,
		HTTPClient:  &http.Client{Transport: tr},
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, reg
}

// TestShipperCallerCancelIsNotAFailure: a shipper shut down mid-delivery
// abandons no segment and retries nothing, whether the cancel lands while
// waiting for the answer or while reading it. Attempts that die by their
// own deadline still count.
func TestShipperCallerCancelIsNotAFailure(t *testing.T) {
	for _, inBody := range []bool{false, true} {
		t.Run(fmt.Sprintf("inBody=%v", inBody), func(t *testing.T) {
			tr := stallTransport{inBody: inBody, started: make(chan struct{}, 8)}
			s, reg := stallShipper(t, tr, time.Minute, 8)
			ctx, cancel := context.WithCancel(context.Background())
			errc := make(chan error, 1)
			go func() {
				_, err := s.PollOnce(ctx)
				errc <- err
			}()
			waitFor(t, tr.started, "stalled attempt")
			cancel()
			select {
			case err := <-errc:
				if err == nil {
					t.Fatal("cancelled poll reported success")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("cancelled poll did not return")
			}
			errs := reg.Counter("federation_shipper_errors_total", "").Value()
			retries := reg.Counter("federation_shipper_retries_total", "").Value()
			if errs != 0 || retries != 0 {
				t.Fatalf("caller cancel counted as failure: errors=%d retries=%d", errs, retries)
			}

			tr = stallTransport{inBody: inBody, started: make(chan struct{}, 8)}
			s, reg = stallShipper(t, tr, 20*time.Millisecond, 2)
			if _, err := s.PollOnce(context.Background()); err == nil {
				t.Fatal("timed-out poll reported success")
			}
			errs = reg.Counter("federation_shipper_errors_total", "").Value()
			retries = reg.Counter("federation_shipper_retries_total", "").Value()
			if errs != 1 || retries != 1 {
				t.Fatalf("deadline expiry: errors=%d retries=%d, want 1/1", errs, retries)
			}
		})
	}
}

func waitFor(t *testing.T, ch chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestReceiverSenderHangupIsNotBadRequest: a shipper that disconnects
// mid-body sent nothing malformed; a complete request whose payload falls
// short of its manifest did.
func TestReceiverSenderHangupIsNotBadRequest(t *testing.T) {
	store, err := snapshot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	recv, err := NewReceiver(ReceiverConfig{Inputs: testInputs(), Store: store, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	recv.MountRoutes(mux)
	handled := make(chan struct{}, 2)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mux.ServeHTTP(w, r)
		handled <- struct{}{}
	}))
	defer srv.Close()

	payload := bytes.Repeat([]byte("x"), 1000)
	var seg bytes.Buffer
	m := Manifest{Format: ManifestFormat, Collector: "c1", Shard: "beacon-0000.jsonl",
		Length: int64(len(payload)), SHA256: Digest(payload), ShardSize: int64(len(payload))}
	if err := EncodeSegment(&seg, m, payload); err != nil {
		t.Fatal(err)
	}
	partial := seg.Bytes()[:seg.Len()-500]
	send := func(contentLength int) net.Conn {
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: receiver\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
			SegmentsPath, SegmentContentType, contentLength)
		conn.Write(partial)
		return conn
	}
	badRequests := func() uint64 { return reg.Counter("federation_recv_bad_requests_total", "").Value() }

	// Hang up with 500 promised bytes still unsent.
	send(seg.Len()).Close()
	waitFor(t, handled, "hung-up request")
	if n := badRequests(); n != 0 {
		t.Fatalf("sender hang-up counted as %d bad requests", n)
	}

	// The same bytes as a complete request are a short payload: malformed.
	conn := send(len(partial))
	defer conn.Close()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitFor(t, handled, "short request")
	if resp.StatusCode != http.StatusBadRequest || badRequests() != 1 {
		t.Fatalf("short payload: status %d, bad requests %d; want 400, 1", resp.StatusCode, badRequests())
	}
}
