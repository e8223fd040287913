//! Client-side update streams: a [`FleetScenario`] as the sequence of
//! position updates each client sends.
//!
//! The fleet generators answer "where is client `c` at tick `t`?"
//! ([`SpaceWorkload::position`]); a *serving* surface needs the
//! transposed view — "what does client `c` put on the wire, in order?".
//! [`UpdateStream`] is that view: a deterministic iterator of positions,
//! one per scenario tick, for one client. It derives from the same
//! scenario state as the in-process run, so a wire run fed from it is
//! comparable to that run tick-for-tick.

use crate::fleet::FleetScenario;
use crate::spaces::SpaceWorkload;

/// An iterator over one client's per-tick positions (exactly
/// `sc.ticks` items).
#[derive(Debug)]
pub struct UpdateStream<'a, S: SpaceWorkload> {
    sc: &'a FleetScenario,
    fleet: &'a S::Fleet,
    client: usize,
    tick: usize,
}

impl<S: SpaceWorkload> Iterator for UpdateStream<'_, S> {
    type Item = S::Pos;

    fn next(&mut self) -> Option<S::Pos> {
        if self.tick >= self.sc.ticks {
            return None;
        }
        let pos = S::position(self.sc, self.fleet, self.client, self.tick);
        self.tick += 1;
        Some(pos)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.sc.ticks - self.tick;
        (left, Some(left))
    }
}

impl<S: SpaceWorkload> ExactSizeIterator for UpdateStream<'_, S> {}

/// The position-update stream client `client` sends over a scenario run
/// (`fleet` from [`SpaceWorkload::make_fleet`]).
pub fn client_updates<'a, S: SpaceWorkload>(
    sc: &'a FleetScenario,
    fleet: &'a S::Fleet,
    client: usize,
) -> UpdateStream<'a, S> {
    UpdateStream {
        sc,
        fleet,
        client,
        tick: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insq_core::Euclidean;

    #[test]
    fn streams_transpose_the_position_table() {
        let sc = FleetScenario {
            clients: 3,
            n: 50,
            ticks: 12,
            ..Default::default()
        };
        let fleet = Euclidean::make_fleet(&sc);
        for c in 0..sc.clients {
            let stream = client_updates::<Euclidean>(&sc, &fleet, c);
            assert_eq!(stream.len(), sc.ticks);
            for (tick, pos) in stream.enumerate() {
                assert_eq!(pos, Euclidean::position(&sc, &fleet, c, tick));
            }
        }
    }
}
