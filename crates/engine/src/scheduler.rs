//! Scheduling contract of [`EventQueue`], the engine's discrete-event
//! scheduler: time order, FIFO ties, clamping of past events, deadlines and
//! the clock it keeps. Test-only; the queue itself lives in
//! [`crate::events`].

mod tests {
    use crate::events::EventQueue;
    use bifrost_simnet::SimTime;

    #[test]
    fn events_fire_in_time_order() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), "c");
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(2), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.action).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_secs(3));
        assert_eq!(q.processed(), 3);
        assert!(q.is_empty());
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..10 {
            q.schedule_at(SimTime::from_secs(5), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.action).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), "later");
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(10));
        q.schedule_at(SimTime::from_secs(1), "stale");
        let event = q.pop().unwrap();
        assert_eq!(event.at, SimTime::from_secs(10));
        // Time never goes backwards.
        assert_eq!(q.now(), SimTime::from_secs(10));
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), 1);
        q.schedule_at(SimTime::from_secs(10), 2);
        assert!(q.pop_until(SimTime::from_secs(5)).is_some());
        assert!(q.pop_until(SimTime::from_secs(5)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn drain_until_advances_clock_to_deadline() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), 1);
        q.schedule_at(SimTime::from_secs(2), 2);
        q.schedule_at(SimTime::from_secs(9), 3);
        let deadline = SimTime::from_secs(5);
        let drained: Vec<u32> = std::iter::from_fn(|| q.pop_until(deadline))
            .map(|e| e.action)
            .collect();
        q.advance_to(deadline);
        assert_eq!(drained, vec![1, 2]);
        assert_eq!(q.now(), deadline);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn debug_output_mentions_pending_count() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), 1);
        assert!(format!("{q:?}").contains("pending"));
    }
}
