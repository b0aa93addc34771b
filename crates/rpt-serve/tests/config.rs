//! `ServeConfig` defaults and the queue ceiling [`Server::start`] holds.

use rpt_rng::{SeedableRng, SmallRng};
use rpt_serve::{ServeConfig, Server, MAX_QUEUE_CAP};

/// The defaults are constants: the server reads no environment variable,
/// so `RPT_SERVE_*` / `RPT_QUANT` in the caller's environment change
/// nothing here.
#[test]
fn default_config_is_the_documented_constants() {
    let cfg = ServeConfig::default();
    assert_eq!(cfg.addr, "127.0.0.1:0");
    assert_eq!(
        (cfg.max_batch, cfg.queue_cap, cfg.reload_poll_ms, cfg.quant),
        (8, 32, 50, false)
    );
    assert_eq!(cfg.queue_cap, 4 * cfg.max_batch);
    assert!(cfg.checkpoint.is_none());
}

/// A queue above the ceiling is refused before the channel (which
/// allocates every place up front) or the listener exists; without the
/// check, `usize::MAX` places would abort the test process.
#[test]
fn queue_cap_above_the_ceiling_is_invalid_input() {
    for queue_cap in [MAX_QUEUE_CAP + 1, usize::MAX] {
        let mut params = rpt_tensor::ParamStore::new();
        let model = rpt_nn::Seq2Seq::new(
            &mut params,
            rpt_nn::TransformerConfig::tiny(16),
            &mut SmallRng::seed_from_u64(1),
        );
        let cfg = ServeConfig {
            queue_cap,
            ..ServeConfig::default()
        };
        match Server::start(model, params, cfg) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}"),
            Ok(server) => {
                server.shutdown();
                panic!("queue_cap {queue_cap} was accepted");
            }
        }
    }
}
