//! Training loop and deployment policies.
//!
//! [`train_agent`] runs the paper's episode loop: each episode samples one
//! training instance, the agent picks synthesis operations until `end` or
//! `T` steps, the terminal reward is the branching reduction, and the DQN
//! is updated from replay after every step. Each instance's initial
//! branching count (the reward's reference) is measured once per run, not
//! once per episode. [`RecipePolicy`] then packages the trained agent — or
//! the ablation policies (random, fixed recipe) — behind one interface for
//! the preprocessing pipelines.

use crate::dqn::{DqnAgent, DqnConfig};
use crate::env::{action_op, measure_branchings, EnvConfig, SynthEnv, NUM_ACTIONS};
use crate::replay::Transition;
use aig::Aig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use synth::{apply_op, Recipe, SynthOp};

/// Training-run configuration.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Number of episodes (the paper runs 10 000).
    pub episodes: usize,
    /// Environment settings.
    pub env: EnvConfig,
    /// Agent hyper-parameters.
    pub dqn: DqnConfig,
    /// Seed for instance sampling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> TrainConfig {
        TrainConfig {
            episodes: 200,
            env: EnvConfig::default(),
            dqn: DqnConfig::default(),
            seed: 0,
        }
    }
}

/// Per-episode training telemetry.
#[derive(Clone, Debug, Default)]
pub struct TrainStats {
    /// Terminal reward of each episode.
    pub episode_rewards: Vec<f64>,
    /// TD losses observed (one average per episode, when available).
    pub episode_losses: Vec<f64>,
}

impl TrainStats {
    /// Mean reward over the last `n` episodes.
    pub fn recent_mean_reward(&self, n: usize) -> f64 {
        let tail = &self.episode_rewards[self.episode_rewards.len().saturating_sub(n)..];
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter().sum::<f64>() / tail.len() as f64
    }
}

/// Trains a DQN agent on the given instances.
///
/// # Panics
/// Panics if `instances` is empty.
pub fn train_agent(instances: &[Aig], cfg: &TrainConfig) -> (DqnAgent, TrainStats) {
    assert!(
        !instances.is_empty(),
        "training needs at least one instance"
    );
    let mut agent = DqnAgent::new(cfg.dqn.clone());
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut stats = TrainStats::default();

    // Each instance's initial branching count, measured on first use: the
    // count is deterministic, so every later episode on the instance
    // reuses it instead of mapping, encoding and solving it again.
    let mut init_counts: Vec<Option<u64>> = vec![None; instances.len()];
    for _ in 0..cfg.episodes {
        let idx = rng.gen_range(0..instances.len());
        let inst = &instances[idx];
        let init = *init_counts[idx].get_or_insert_with(|| {
            let e = &cfg.env;
            measure_branchings(inst, &e.mapper, &e.solver, e.budget.clone())
        });
        let mut env = SynthEnv::with_initial_branchings(inst, cfg.env.clone(), init);
        let mut state = env.state();
        let terminal_reward;
        let mut losses = Vec::new();
        loop {
            let action = agent.select_action(&state);
            let step = env.step(action);
            agent.remember(Transition {
                state: std::mem::take(&mut state),
                action,
                reward: step.reward,
                next_state: step.state.clone(),
                done: step.done,
            });
            if let Some(l) = agent.train_step() {
                losses.push(l);
            }
            state = step.state;
            if step.done {
                terminal_reward = step.reward;
                break;
            }
        }
        stats.episode_rewards.push(terminal_reward);
        if !losses.is_empty() {
            stats
                .episode_losses
                .push(losses.iter().sum::<f64>() / losses.len() as f64);
        }
    }
    (agent, stats)
}

/// A deployable recipe-selection policy.
#[derive(Clone, Debug)]
pub enum RecipePolicy {
    /// The trained agent, rolled out greedily (the paper's *Ours*).
    Agent(Box<DqnAgent>),
    /// Uniformly random operations for `T` steps (the *w/o RL* ablation).
    Random {
        /// Sampling seed.
        seed: u64,
        /// Episode length `T`.
        steps: usize,
    },
    /// A fixed recipe (baseline scripts).
    Fixed(Recipe),
    /// No synthesis at all (identity).
    None,
}

impl RecipePolicy {
    /// Applies the policy to an instance, returning the transformed graph
    /// and the recipe actually executed.
    pub fn run(&self, instance: &Aig, env_cfg: &EnvConfig) -> (Aig, Recipe) {
        match self {
            RecipePolicy::Agent(agent) => rollout_greedy(agent, instance, env_cfg),
            RecipePolicy::Random { seed, steps } => {
                // Mix per-instance structure into the seed so different
                // instances draw different random recipes.
                let salt = instance.num_nodes() as u64 ^ ((instance.num_pis() as u64) << 32);
                let mut rng = StdRng::seed_from_u64(seed ^ salt);
                let ops: Vec<SynthOp> = (0..*steps)
                    .map(|_| {
                        // The paper's random agent draws operations only
                        // (never `end`).
                        action_op(rng.gen_range(0..NUM_ACTIONS - 1)).expect("op action")
                    })
                    .collect();
                let mut g = instance.clone();
                for &op in &ops {
                    g = apply_op(&g, op);
                }
                (g, Recipe::from_ops(ops))
            }
            RecipePolicy::Fixed(recipe) => (recipe.apply(instance), recipe.clone()),
            RecipePolicy::None => (instance.clone(), Recipe::new()),
        }
    }
}

/// Greedy rollout of a trained agent (no reward evaluation, no solving).
///
/// Terminates early when an operation reaches a fixed point: the greedy
/// policy is deterministic, so an unchanged graph (hence unchanged state)
/// would repeat the same action until the step cap — pure wasted work.
pub fn rollout_greedy(agent: &DqnAgent, instance: &Aig, env_cfg: &EnvConfig) -> (Aig, Recipe) {
    let mut env = SynthEnv::new_rollout(instance, env_cfg.clone());
    let mut recipe = Recipe::new();
    loop {
        let action = agent.greedy(&env.state());
        match action_op(action) {
            None => break,
            Some(op) => recipe.push(op),
        }
        let before = env.current().clone();
        let step = env.step(action);
        if step.done || env.current().same_structure(&before) {
            break;
        }
    }
    (env.current().clone(), recipe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::datapath::ripple_carry_adder;
    use workloads::lec::{inject_bug, miter};

    fn tiny_instances() -> Vec<Aig> {
        (0..3)
            .map(|s| {
                let a = ripple_carry_adder(3 + s);
                let b = inject_bug(&a.aig, s as u64, 50).expect("bug");
                miter(&a.aig, &b)
            })
            .collect()
    }

    #[test]
    fn short_training_run_completes() {
        let instances = tiny_instances();
        let cfg = TrainConfig {
            episodes: 4,
            env: EnvConfig {
                max_steps: 2,
                ..EnvConfig::default()
            },
            dqn: DqnConfig {
                batch_size: 4,
                eps_decay_steps: 8,
                ..DqnConfig::default()
            },
            seed: 1,
        };
        let (agent, stats) = train_agent(&instances, &cfg);
        assert_eq!(stats.episode_rewards.len(), 4);
        assert!(agent.env_steps() >= 4);
    }

    /// The training loop before initial counts were shared: every episode
    /// measures its instance's initial branching count afresh.
    fn reference_train(instances: &[Aig], cfg: &TrainConfig) -> (DqnAgent, Vec<f64>) {
        let mut agent = DqnAgent::new(cfg.dqn.clone());
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut rewards = Vec::new();
        for _ in 0..cfg.episodes {
            let inst = &instances[rng.gen_range(0..instances.len())];
            let mut env = SynthEnv::new_training(inst, cfg.env.clone());
            let mut state = env.state();
            loop {
                let action = agent.select_action(&state);
                let step = env.step(action);
                agent.remember(Transition {
                    state: std::mem::take(&mut state),
                    action,
                    reward: step.reward,
                    next_state: step.state.clone(),
                    done: step.done,
                });
                agent.train_step();
                state = step.state;
                if step.done {
                    rewards.push(step.reward);
                    break;
                }
            }
        }
        (agent, rewards)
    }

    #[test]
    fn shared_initial_counts_train_the_same_agent() {
        // Fewer instances than episodes, so most episodes reuse an initial
        // branching count measured by an earlier one.
        let instances = tiny_instances();
        let cfg = TrainConfig {
            episodes: 9,
            env: EnvConfig {
                max_steps: 2,
                ..EnvConfig::default()
            },
            dqn: DqnConfig {
                batch_size: 4,
                eps_decay_steps: 18,
                ..DqnConfig::default()
            },
            seed: 3,
        };
        let (a, sa) = train_agent(&instances, &cfg);
        let (b, sb) = train_agent(&instances, &cfg);
        let (r, rewards) = reference_train(&instances, &cfg);
        assert_eq!(sa.episode_rewards, sb.episode_rewards);
        assert_eq!(sa.episode_rewards, rewards);
        let q_bits = |agent: &DqnAgent, inst: &Aig| -> Vec<u64> {
            let state = SynthEnv::new_rollout(inst, cfg.env.clone()).state();
            agent.q_values(&state).iter().map(|x| x.to_bits()).collect()
        };
        for inst in &instances {
            assert_eq!(q_bits(&a, inst), q_bits(&b, inst));
            assert_eq!(q_bits(&a, inst), q_bits(&r, inst));
        }
    }

    #[test]
    fn policies_preserve_function() {
        let inst = &tiny_instances()[0];
        let env_cfg = EnvConfig {
            max_steps: 3,
            ..EnvConfig::default()
        };
        let policies = [
            RecipePolicy::Random { seed: 5, steps: 3 },
            RecipePolicy::Fixed(Recipe::size_script()),
            RecipePolicy::None,
        ];
        for p in policies {
            let (g, _) = p.run(inst, &env_cfg);
            assert!(aig::check::sim_equiv(inst, &g, 8, 2), "{p:?}");
        }
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let inst = &tiny_instances()[1];
        let env_cfg = EnvConfig::default();
        let p = RecipePolicy::Random { seed: 11, steps: 4 };
        let (_, r1) = p.run(inst, &env_cfg);
        let (_, r2) = p.run(inst, &env_cfg);
        assert_eq!(r1, r2);
    }

    #[test]
    fn greedy_rollout_bounded_by_max_steps() {
        let inst = &tiny_instances()[2];
        let agent = DqnAgent::new(DqnConfig::default());
        let env_cfg = EnvConfig {
            max_steps: 3,
            ..EnvConfig::default()
        };
        let (g, recipe) = rollout_greedy(&agent, inst, &env_cfg);
        assert!(recipe.len() <= 3);
        assert!(aig::check::sim_equiv(inst, &g, 8, 9));
    }
}
