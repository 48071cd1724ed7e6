//! A cold miss through the default daemon configuration runs the
//! bound-pruned sweep and still serves the exhaustive sweep's winner,
//! bit for bit.

use augem::asm::emit::emit_att;
use augem::tune::{tune_gemm, Candidate};
use augem_kernels::DlaKernel;
use augem_machine::MachineSpec;
use augem_obs::Json;
use augem_resil::Injector;
use augem_serve::{Op, Request, ServeConfig, Server, ServerPool, Status};
use std::sync::Arc;

#[test]
fn default_cold_gemm_miss_is_pruned_and_serves_the_exhaustive_winner() {
    let machine = MachineSpec::sandy_bridge();
    let exhaustive = tune_gemm(&machine).expect("dgemm tunes");
    let want_asm = emit_att(
        &exhaustive.best.build(&machine).expect("the winner builds"),
        &machine.isa,
    );

    let server = Arc::new(Server::open(ServeConfig::default(), Injector::disabled()).unwrap());
    let pool = ServerPool::start(server);
    let resp = pool
        .request(Request {
            id: "cold".into(),
            op: Op::Generate,
            kernel: DlaKernel::Gemm,
            machine: machine.clone(),
            deadline_ms: None,
            step_limit: None,
        })
        .recv()
        .expect("one response");
    pool.shutdown();

    assert_eq!(resp.status, Status::Ok, "{:?}", resp.error);
    assert_eq!(resp.cache, Some("miss"));
    assert_eq!(
        resp.config_tag.as_deref(),
        Some(exhaustive.best.tag().as_str())
    );
    assert_eq!(
        resp.mflops.map(f64::to_bits),
        Some(exhaustive.best_eval.mflops.to_bits())
    );
    assert_eq!(resp.asm.as_deref(), Some(want_asm.as_str()));

    let report = resp.report.expect("a miss embeds its run report");
    let counter = |name: &str| {
        report
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    assert!(counter("cost.analyzed") > 0, "no bound phase ran");
    assert!(
        counter("cost.pruned") > 0,
        "the default miss pruned nothing"
    );
}
