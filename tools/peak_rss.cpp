// Peak resident set size of one command. Usage:
//   peak_rss <command> [args...]
// Runs the command as a child (fork, execvp, wait4), leaves its stdin,
// stdout and stderr alone, then prints the child's ru_maxrss in KiB as one
// line on stderr and exits with the child's status (128 + N when signal N
// killed it, 127 when it could not be started).
//
// tools/ci.sh reads peak RSS through this rather than through a Python
// wrapper's RUSAGE_CHILDREN: Linux seeds a child's ru_maxrss with its
// parent's RSS at exec, so no reading is below the parent's own footprint.
// Around `true` that floor reads about 1 MB with this program as the
// parent and about 14 MB with a Python one.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: peak_rss <command> [args...]\n");
    return 2;
  }
  pid_t pid = fork();
  if (pid < 0) {
    std::fprintf(stderr, "peak_rss: fork: %s\n", std::strerror(errno));
    return 1;
  }
  if (pid == 0) {
    execvp(argv[1], argv + 1);
    std::fprintf(stderr, "peak_rss: cannot run '%s': %s\n", argv[1],
                 std::strerror(errno));
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::fprintf(stderr, "peak_rss: wait4: %s\n", std::strerror(errno));
      return 1;
    }
  }
  std::fprintf(stderr, "%ld\n", usage.ru_maxrss);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return WEXITSTATUS(status);
}
