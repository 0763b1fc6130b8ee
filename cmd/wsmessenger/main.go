// Command wsmessenger runs the WS-Messenger broker as an HTTP daemon.
//
// The broker front door accepts, at one endpoint, subscribe requests and
// published notifications in both WS-Eventing (1/2004 and 8/2004) and
// WS-Notification (1.0 and 1.3); subscription management lives at a
// second endpoint. Responses and deliveries follow the specification each
// party used — the mediation behaviour of §VII of the paper.
//
// Usage:
//
//	wsmessenger -listen :8891
//
// Endpoints:
//
//	POST /           — Subscribe (either spec), Notify / raw publishes,
//	                   GetCurrentMessage
//	POST /manage     — Renew, GetStatus, Unsubscribe, Pull,
//	                   Pause/ResumeSubscription, WSRF operations
//	GET  /metrics    — Prometheus text exposition (lifecycle counters,
//	                   queue/breaker/DLQ gauges, latency histograms)
//	GET  /healthz    — liveness: 503 while any circuit breaker is open or
//	                   the dead-letter queue is past its watermark, or —
//	                   when federated — while a peer link has lapsed
//	POST /peer       — federation ingest (relayed Notify from peer brokers)
//	POST /ce         — CloudEvents front door: publish (structured, batched
//	                   or binary mode) and JSON subscription management
//	GET  /ws         — WebSocket front door: subscribe over the socket,
//	                   receive matching publishes as CloudEvents JSON
//	GET  /debug/pprof/ — net/http/pprof profiling surface (only with -pprof)
//
// With -mqtt the broker additionally listens for MQTT 3.1.1 clients on a
// raw TCP port (for example -mqtt :1883): CONNECT/SUBSCRIBE/PUBLISH at
// QoS 0, 1 and 2, retained messages, wills and persistent sessions, all
// riding the same dispatch, retry and conservation machinery as the HTTP
// doors. MQTT topics map onto WS-Topics paths (namespace
// urn:ws-messenger:mqtt unless the topic carries a "{ns}" prefix), so
// MQTT publishers reach SOAP/CloudEvents/WebSocket subscribers and vice
// versa.
//
// Delivery batching and pipelining: outbound notifications are grouped by
// destination host and coalesced into multi-NotificationMessage envelopes
// over a pooled keep-alive transport, up to 64 entries per envelope after
// a coalescing wait of at most 2 ms. Each host runs up to 4 concurrent
// sends; an AIMD controller grows that window on sustained success and
// halves it on timeouts or 5xx, so slow or flaky hosts back off to one
// send at a time on their own. These values are fixed (the outbound
// constants below); the connection cap per host and the dispatch worker
// cap are their packages' defaults.
//
// Federation: give each broker an identity and point it at its peers —
//
//	wsmessenger -listen :8891 -id broker-a -peer http://localhost:8892/
//	wsmessenger -listen :8892 -id broker-b -peer http://localhost:8891/
//
// and every event published at either broker reaches the subscribers of
// both, exactly once, with loops suppressed by the wsmf:Relay header.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wsdl"
)

// peerList collects repeatable -peer flags.
type peerList []string

func (p *peerList) String() string { return strings.Join(*p, ",") }

func (p *peerList) Set(v string) error {
	for _, s := range strings.Split(v, ",") {
		if s = strings.TrimSpace(s); s != "" {
			*p = append(*p, s)
		}
	}
	return nil
}

// The outbound tuning the daemon runs with: entries per coalesced envelope,
// the coalescing wait, and the per-host in-flight window with its AIMD
// governor. Embedders set other values through core.Config.
const (
	batchMax           = 64
	batchWindow        = 2 * time.Millisecond
	maxInflightPerHost = 4
	adaptiveWindow     = true
)

func main() {
	listen := flag.String("listen", ":8891", "HTTP listen address")
	external := flag.String("external", "", "externally visible base URL (default http://<listen>)")
	scavenge := flag.Duration("scavenge", 30*time.Second, "subscription scavenge interval")
	queueDepth := flag.Int("queue", 256, "per-subscriber delivery queue depth")
	pprofFlag := flag.Bool("pprof", false, "expose net/http/pprof profiling endpoints at /debug/pprof/ on the admin mux")
	stateFile := flag.String("state", "", "subscription snapshot file: restored on start, written on shutdown")
	dataDir := flag.String("data-dir", "", "durable event log directory: every accepted publish is appended (and recovered on boot)")
	durability := flag.String("durability", "", "event log durability: batch (fsync before ack, the -data-dir default), async, or off")
	dlqWatermark := flag.Int("dlq-watermark", core.DefaultDLQWatermark,
		"dead-letter depth at which /healthz reports degraded")
	cloudEvents := flag.Bool("cloudevents", true, "serve the CloudEvents front door at /ce")
	webSocket := flag.Bool("ws", true, "serve the WebSocket front door at /ws")
	mqttListen := flag.String("mqtt", "", "MQTT 3.1.1 listen address (for example :1883; empty disables the MQTT front door)")
	brokerID := flag.String("id", "", "federation identity; required with -peer")
	maxHops := flag.Int("max-hops", federation.DefaultMaxHops, "relay hop cap for federated notifications")
	var peers peerList
	flag.Var(&peers, "peer", "peer broker front-door URL (repeatable, or comma-separated)")
	flag.Parse()

	base := *external
	if base == "" {
		base = "http://localhost" + *listen
		if (*listen)[0] != ':' {
			base = "http://" + *listen
		}
	}

	if len(peers) > 0 && *brokerID == "" {
		log.Fatal("wsmessenger: -peer requires -id (the broker's federation identity)")
	}

	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, "broker")
	client := &transport.HTTPClient{
		HC:  transport.NewPooledHTTPClient(transport.PoolConfig{Timeout: 15 * time.Second}),
		Obs: obs.NewTransportMetrics(reg, "broker"),
	}
	broker, err := core.New(core.Config{
		Address:            base + "/",
		ManagerAddress:     base + "/manage",
		Client:             client,
		QueueDepth:         *queueDepth,
		BatchMax:           batchMax,
		BatchWindow:        batchWindow,
		MaxInflightPerHost: maxInflightPerHost,
		AdaptiveWindow:     adaptiveWindow,
		BrokerID:           *brokerID,
		DataDir:            *dataDir,
		Durability:         *durability,
		Obs:                rec,
	})
	if err != nil {
		log.Fatalf("wsmessenger: %v", err)
	}
	if *dataDir != "" {
		log.Printf("wsmessenger: event log recovered at %s (head position %d)", *dataDir, broker.LogHead())
	}
	var peering *federation.Peering
	if *brokerID != "" {
		peering, err = federation.New(federation.Config{
			Broker:        broker,
			Client:        client,
			IngestAddress: base + "/peer",
			MaxHops:       *maxHops,
			Obs:           rec,
		})
		if err != nil {
			log.Fatalf("wsmessenger: %v", err)
		}
	}
	if *stateFile != "" {
		if f, err := os.Open(*stateFile); err == nil {
			n, rerr := broker.RestoreSubscriptions(f)
			f.Close()
			if rerr != nil {
				log.Fatalf("wsmessenger: restore %s: %v", *stateFile, rerr)
			}
			log.Printf("wsmessenger: restored %d subscriptions from %s", n, *stateFile)
		} else if !os.IsNotExist(err) {
			log.Fatalf("wsmessenger: %v", err)
		}
	}

	mux := http.NewServeMux()
	frontTM := obs.NewTransportMetrics(reg, "front") // inbound faults + 413s
	front := transport.NewHTTPHandlerObs(broker.FrontHandler(), frontTM)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.RawQuery == "wsdl" {
			w.Header().Set("Content-Type", "text/xml; charset=utf-8")
			fmt.Fprint(w, wsdl.ForBroker(base+"/").Document())
			return
		}
		front.ServeHTTP(w, r)
	})
	mux.Handle("/manage", transport.NewHTTPHandlerObs(broker.ManagerHandler(), frontTM))
	mux.Handle("/metrics", reg.Handler())
	health := broker.HealthChecks(*dlqWatermark)
	if peering != nil {
		mux.Handle("/peer", transport.NewHTTPHandlerObs(peering.IngestHandler(), frontTM))
		health = obs.CombineChecks(health, peering.HealthChecks())
	}
	mux.Handle("/healthz", obs.HealthHandler(health))
	if *cloudEvents {
		mux.Handle("/ce", broker.CEHandler())
	}
	if *webSocket {
		mux.Handle("/ws", broker.WSHandler())
	}
	if *pprofFlag {
		// Explicit registration: the default-mux side effect of importing
		// net/http/pprof does not reach this private mux, and the handlers
		// must stay off the wire unless asked for.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("wsmessenger: pprof profiling exposed at %s/debug/pprof/", base)
	}

	// No ReadTimeout/WriteTimeout: they would cut /ws upgrades and long pulls.
	srv := &http.Server{
		Addr:              *listen,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	// SIGTERM is how kill, docker stop and systemd end a daemon; it takes
	// the same snapshot-and-drain path as Ctrl-C.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go broker.Store().Run(ctx, *scavenge)
	if *mqttListen != "" {
		ln, err := net.Listen("tcp", *mqttListen)
		if err != nil {
			log.Fatalf("wsmessenger: mqtt listen %s: %v", *mqttListen, err)
		}
		go func() {
			<-ctx.Done()
			ln.Close()
		}()
		go func() {
			if err := broker.ServeMQTT(ln); err != nil && ctx.Err() == nil {
				log.Printf("wsmessenger: mqtt: %v", err)
			}
		}()
		log.Printf("wsmessenger: MQTT front door at %s", *mqttListen)
	}
	if peering != nil {
		// Peers may still be starting; keep trying until each link is up.
		for _, remote := range peers {
			go func(remote string) {
				for {
					pctx, cancel := context.WithTimeout(ctx, 10*time.Second)
					_, err := peering.Peer(pctx, remote)
					cancel()
					if err == nil {
						log.Printf("wsmessenger: peered with %s", remote)
						return
					}
					log.Printf("wsmessenger: peer %s: %v (retrying)", remote, err)
					select {
					case <-ctx.Done():
						return
					case <-time.After(3 * time.Second):
					}
				}
			}(remote)
		}
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		if *stateFile != "" {
			// Temp file + fsync + atomic rename: a crash mid-save can never
			// corrupt the previous snapshot.
			if err := broker.SaveSubscriptionsFile(*stateFile); err != nil {
				log.Printf("wsmessenger: snapshot: %v", err)
			} else {
				log.Printf("wsmessenger: subscriptions snapshotted to %s", *stateFile)
			}
			// With a snapshot, subscriptions survive the restart, so no
			// end notices are sent.
		} else {
			log.Println("wsmessenger: shutting down, sending end notices")
			broker.Shutdown()
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()

	log.Printf("wsmessenger: broker front door at %s (manage at %s/manage)", base, base)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatalf("wsmessenger: %v", err)
	}
	// ListenAndServe returns as soon as Shutdown closes the listeners; wait
	// for the in-flight requests to drain.
	<-drained
}
