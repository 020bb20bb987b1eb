//! Kernel-equivalence gate for the zero-allocation training hot path.
//!
//! Trains two DDPG agents on the paper's RA slicing environment from the
//! same seed — one through the fused `_into`-kernel update, one through the
//! oracle update built from `edgeslice_nn::oracle` — and requires their serialized
//! [`PolicyCheckpoint`]s to be **byte-identical**. Any reordering of
//! floating-point operations inside the new kernels would show up here as a
//! JSON diff.

use edgeslice::{OrchestrationAgent, PolicyCheckpoint, RaEnvConfig, RaId, RaSliceEnv, SliceSpec};
use edgeslice_netsim::PoissonTraffic;
use edgeslice_rl::{Ddpg, DdpgConfig, DdpgUpdate, Environment};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn paper_env() -> RaSliceEnv {
    RaSliceEnv::with_dataset(
        RaEnvConfig::experiment(vec![
            SliceSpec::experiment_slice1(),
            SliceSpec::experiment_slice2(),
        ]),
        vec![
            Box::new(PoissonTraffic::paper()),
            Box::new(PoissonTraffic::paper()),
        ],
    )
}

/// The update step under test: [`Ddpg::update`] or [`Ddpg::update_oracle`].
type UpdateStep = fn(&mut Ddpg, &mut StdRng) -> Option<DdpgUpdate>;

fn trained_checkpoint_json(seed: u64, steps: usize, update: UpdateStep) -> String {
    let mut env = paper_env();
    let mut rng = StdRng::seed_from_u64(seed);
    let config = DdpgConfig {
        hidden: 24,
        batch_size: 32,
        replay_capacity: 4_096,
        warmup: 100,
        ..Default::default()
    };
    let mut agent = Ddpg::new(env.state_dim(), env.action_dim(), config, &mut rng);
    agent.train_with(&mut env, steps, &mut rng, update);
    let agent = OrchestrationAgent::from_ddpg(RaId(0), agent);
    PolicyCheckpoint::from_agent(&agent)
        .to_json()
        .expect("checkpoint serializes")
}

#[test]
fn fixed_seed_training_checkpoints_are_byte_identical_across_kernels() {
    let fused = trained_checkpoint_json(1234, 400, Ddpg::update);
    let reference = trained_checkpoint_json(1234, 400, Ddpg::update_oracle);
    assert!(
        fused == reference,
        "fused-kernel training diverged from the oracle: \
         checkpoints differ (fused {} bytes, reference {} bytes)",
        fused.len(),
        reference.len()
    );
    // Sanity: different seeds must *not* collide, or the equality above
    // proves nothing.
    let other = trained_checkpoint_json(99, 400, Ddpg::update);
    assert_ne!(fused, other, "checkpoint JSON is insensitive to training");
}
