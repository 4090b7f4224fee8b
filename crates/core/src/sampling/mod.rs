//! Constructing sampling vectors from grouping samplings.
//!
//! [`basic_sampling_vector`] is the paper's Algorithm 1 plus the
//! fault-tolerance rule of eq. (6); [`extended_sampling_vector`] is the
//! Section-6 extension (Definition 10) that keeps the *degree* of flipping
//! instead of collapsing it to `0`; [`basic_sampling_vector_over`] runs
//! Algorithm 1 on a window of the grouping's instants (one instant gives
//! the certain-sequence vector of the one-shot baselines). All of them
//! write the packed vector directly (see [`crate::vector::SamplingVector`]).

mod algorithm1;

pub(crate) use algorithm1::columns_sampling_vector;
pub use algorithm1::{basic_sampling_vector, basic_sampling_vector_over, extended_sampling_vector};
