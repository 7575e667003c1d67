//! Protocol tests with hub and endpoints in one process (threads stand
//! in for worker processes). The real multi-process path is exercised
//! by `converse-machine`'s socket transport tests; these pin the frame
//! protocol itself — bootstrap barrier, routing, reliability over the
//! wire, teardown — without the exec machinery.

use converse_msg::MsgBlock;
use converse_net::{Channel, CmiTransport, DeliveryMode, FaultPlan, LinkFaults, Mailbox, Packet};
use converse_trace::NullSink;
use converse_wire::{WireEndpoint, WireHub, WireKind, WireOptions, WorkerReport};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn opts() -> WireOptions {
    WireOptions {
        accept_timeout: Duration::from_secs(20),
        connect_timeout: Duration::from_secs(10),
        ..WireOptions::default()
    }
}

/// Default-channel send and the local rank's mailbox, built on the
/// trait.
trait EndpointExt {
    fn send_block(&self, src: usize, dst: usize, block: MsgBlock);
    fn local(&self, pe: usize) -> &Mailbox;
    fn recv_timeout(&self, pe: usize, timeout: Duration) -> Option<Packet> {
        self.local(pe).recv_timeout(timeout)
    }
}

impl EndpointExt for WireEndpoint {
    fn send_block(&self, src: usize, dst: usize, block: MsgBlock) {
        self.send_block_on(src, dst, block, Channel::DEFAULT);
    }

    fn local(&self, pe: usize) -> &Mailbox {
        self.mailbox(pe)
            .expect("an endpoint holds its own rank's mailbox")
    }
}

fn worker_exit(ep: &Arc<WireEndpoint>, rank: usize) {
    assert!(
        ep.flush(Instant::now() + Duration::from_secs(20)),
        "rank {rank}: flush did not drain"
    );
    let report = WorkerReport {
        rank,
        traffic: ep.local(rank).traffic(),
        faults: ep.fault_stats(),
        output: Vec::new(),
    };
    ep.send_exit(&report.encode());
    assert!(ep.wait_fin(Duration::from_secs(20)), "rank {rank}: no FIN");
}

/// Run `n` endpoint bodies against a hub, all in this process.
fn run_machine(
    n: usize,
    plan: Option<FaultPlan>,
    body: impl Fn(Arc<WireEndpoint>, usize) + Send + Sync + 'static,
) -> Vec<WorkerReport> {
    let o = opts();
    let hub = WireHub::bind(n, WireKind::Tcp).expect("bind hub");
    let addr = hub.addr().to_string();
    let body = Arc::new(body);
    let mut joins = Vec::new();
    for rank in 0..n {
        let addr = addr.clone();
        let plan = plan.clone();
        let o = o.clone();
        let body = body.clone();
        joins.push(std::thread::spawn(move || {
            let ep = WireEndpoint::connect(
                rank,
                n,
                &addr,
                DeliveryMode::Fifo,
                plan,
                &o,
                Arc::new(NullSink),
                None,
            )
            .expect("connect");
            body(ep.clone(), rank);
            worker_exit(&ep, rank);
        }));
    }
    let outcome = hub.run(&o, || None).expect("hub run");
    for j in joins {
        j.join().expect("worker thread");
    }
    outcome.reports
}

#[test]
fn two_ranks_exchange_messages_and_exit_cleanly() {
    let reports = run_machine(2, None, |ep, rank| {
        let peer = 1 - rank;
        ep.send_block(rank, peer, format!("hi from {rank}").into_bytes().into());
        let p = ep
            .recv_timeout(rank, Duration::from_secs(10))
            .expect("peer message");
        assert_eq!(p.src, peer);
        assert_eq!(p.bytes(), format!("hi from {peer}").as_bytes());
    });
    assert_eq!(reports.len(), 2);
    for (rank, r) in reports.iter().enumerate() {
        assert_eq!(r.rank, rank);
        assert_eq!(r.traffic.msgs_sent, 1);
        assert_eq!(r.traffic.msgs_recv, 1);
    }
}

#[test]
fn lossy_wire_delivers_exactly_once_in_order() {
    let n = 3;
    let per_link = 120u64;
    let plan = FaultPlan::new(1996).faults(LinkFaults {
        drop: 0.25,
        dup: 0.2,
        delay: 0.2,
        max_delay_slots: 3,
    });
    let reports = run_machine(n, Some(plan), move |ep, rank| {
        // Every rank streams a numbered sequence to every other rank.
        for dst in 0..n {
            if dst == rank {
                continue;
            }
            for i in 0..per_link {
                let mut payload = vec![rank as u8];
                payload.extend_from_slice(&i.to_le_bytes());
                ep.send_block(rank, dst, payload.into());
            }
        }
        // Expect exactly per_link messages from each peer, in order.
        let mut next = vec![0u64; n];
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut remaining = per_link * (n as u64 - 1);
        while remaining > 0 {
            assert!(Instant::now() < deadline, "rank {rank}: timed out");
            let Some(p) = ep.recv_timeout(rank, Duration::from_millis(200)) else {
                continue;
            };
            let src = p.bytes()[0] as usize;
            let i = u64::from_le_bytes(p.bytes()[1..9].try_into().unwrap());
            assert_eq!(
                i, next[src],
                "rank {rank}: out-of-order or duplicated delivery from {src}"
            );
            next[src] += 1;
            remaining -= 1;
        }
    });
    let total_faults: u64 = reports
        .iter()
        .map(|r| r.faults.dropped + r.faults.duplicated + r.faults.delayed)
        .sum();
    assert!(
        total_faults > 0,
        "the fault plane injected nothing — the test proved nothing"
    );
    for r in &reports {
        assert_eq!(r.traffic.msgs_recv, per_link * (n as u64 - 1));
    }
}

#[test]
fn broadcast_reaches_every_rank_as_copies() {
    let reports = run_machine(3, None, |ep, rank| {
        assert!(!ep.kind().shares_memory());
        assert_eq!(ep.kind().name(), "socket");
        if rank == 0 {
            ep.broadcast_block(0, b"fanout".as_slice().into(), false);
        } else {
            let p = ep
                .recv_timeout(rank, Duration::from_secs(10))
                .expect("broadcast arrival");
            assert_eq!(p.src, 0);
            assert_eq!(p.bytes(), b"fanout");
        }
    });
    assert_eq!(reports[0].traffic.msgs_sent, 2);
}

#[test]
fn remote_stall_routes_over_the_wire() {
    run_machine(2, None, |ep, rank| {
        if rank == 0 {
            ep.stall_for(1, Duration::from_millis(300));
            ep.send_block(0, 1, b"after stall".as_slice().into());
        } else {
            // Give the STALL frame time to arrive and arm.
            std::thread::sleep(Duration::from_millis(100));
            let armed = ep.local(1).stalled();
            let t0 = Instant::now();
            let p = ep
                .recv_timeout(1, Duration::from_secs(10))
                .expect("message after stall");
            assert_eq!(p.bytes(), b"after stall");
            if armed {
                assert!(
                    t0.elapsed() >= Duration::from_millis(100),
                    "stall window did not hold delivery"
                );
            }
        }
    });
}

#[test]
fn worker_abort_fans_out_to_peers() {
    let n = 2;
    let o = opts();
    let hub = WireHub::bind(n, WireKind::Tcp).expect("bind hub");
    let addr = hub.addr().to_string();
    let mut joins = Vec::new();
    for rank in 0..n {
        let addr = addr.clone();
        let o = o.clone();
        joins.push(std::thread::spawn(move || {
            let ep = WireEndpoint::connect(
                rank,
                n,
                &addr,
                DeliveryMode::Fifo,
                None,
                &o,
                Arc::new(NullSink),
                None,
            )
            .expect("connect");
            if rank == 0 {
                ep.send_abort("entry panicked: boom");
                false
            } else {
                // The peer must be woken out of a blocking receive.
                let p = ep.recv_timeout(rank, Duration::from_secs(20));
                assert!(p.is_none(), "no message was ever sent");
                assert!(ep.local(rank).is_closed(), "abort must close the mailbox");
                ep.aborted().is_some()
            }
        }));
    }
    let err = hub.run(&o, || None).expect_err("hub must report the panic");
    match err {
        converse_wire::HubFailure::Panicked { rank, msg } => {
            assert_eq!(rank, 0);
            assert!(msg.contains("boom"), "lost the panic message: {msg}");
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    let saw: Vec<bool> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    assert!(saw[1], "rank 1 never observed the abort");
}

#[cfg(unix)]
#[test]
fn unix_domain_sockets_carry_the_machine() {
    let n = 2;
    let o = WireOptions {
        kind: WireKind::Unix,
        ..opts()
    };
    let hub = WireHub::bind(n, WireKind::Unix).expect("bind unix hub");
    let addr = hub.addr().to_string();
    assert!(addr.starts_with("unix:"), "unexpected addr {addr}");
    let mut joins = Vec::new();
    for rank in 0..n {
        let addr = addr.clone();
        let o = o.clone();
        joins.push(std::thread::spawn(move || {
            let ep = WireEndpoint::connect(
                rank,
                n,
                &addr,
                DeliveryMode::Fifo,
                None,
                &o,
                Arc::new(NullSink),
                None,
            )
            .expect("connect over unix socket");
            let peer = 1 - rank;
            ep.send_block(rank, peer, b"ud".as_slice().into());
            let p = ep
                .recv_timeout(rank, Duration::from_secs(10))
                .expect("peer message");
            assert_eq!(p.src, peer);
            worker_exit(&ep, rank);
        }));
    }
    hub.run(&o, || None).expect("hub run over unix socket");
    for j in joins {
        j.join().expect("worker thread");
    }
}
